"""Big-step evaluator core, compiled to closures, and first-order runs on it.

Execution follows the rule-per-construct semantics: statements produce a
break flag plus an updated store, a while loop converts a break from its
body into normal termination, and ``declass(e1, e2)`` evaluates to the
unary numeral for min(|w1|, |w2|).

``Interp`` is the one evaluator of expressions and statements.  It compiles
each node once into a Python closure (Feeley and Lapalme, "Using closures
for code generation", 1987) and runs the closures.  Programs come from
``parser.parse`` or ``parser.parse_file``, or are built to the same rules:
every operator is known and applied at its arity, every ``const:`` word is
a word, and no ``for`` loop is left.  Operator entries are resolved at
compile time; a node that is not an expression or a statement raises
``TypeError`` when it is compiled.  The interpreter owns the step budget,
store-size accounting (kept incrementally for the current frame), loops
with the monitor, and the ``(loop_id, serial)`` activation labels of
oracle-break events.  Oracle calls and oracle breaks, which the parser
admits only in second-order programs, go through the ``apply_oracle`` hook
that ``secondorder.Interp2`` adds with procedures and closures.
``Interp(budget, monitor).run(program, inputs)`` raises ``ValueError`` on a
wrong input count before its first step; otherwise it returns the result
word or raises a ``RuntimeStop``, and either way ``interp.stats`` then
holds the run's statistics; a stop carries none.
Program and procedure bodies run through ``run_body``; any single statement
runs as its closure, ``interp.compiled(s)(interp, store)``.

A step is one rule application, so the step count is proportional to the
size of the evaluation derivation.  Steps are taken in batches: a compiled
node carries a prefix, the ticks it takes before its first observable event
(a store write, an oracle call, a monitor observation or a failure), and
whoever runs the node takes the prefix in one check.  A check that would
pass the budget sets the count to budget + 1 and stops the run.
No event lies inside a batch, so the run stops where ticking rule by rule
would have, with the same stats: batching changes wall time and never the
step count, the stats or the stop.

An expression is pure exactly when it holds no oracle call: operators are
total on words and every stored value is a word.  A pure expression cannot
fail, so it compiles to a tick-free kernel whose prefix is its size.  An
operator has one or two operands, and each runs as its own kernel except
two reads (variables or constants), which are read inline: the one fused
shape that runs call often (Proebsting, 1995).  An assignment of a read,
or of an operator on one or two reads, runs as one closure.  Oracle calls
and oracle breaks tick as their own nodes; the operands of such a node take
their prefixes just before they run.  A sequence takes its tick before a
statement with that statement's prefix, and a loop its unrolled-sequence
tick with its body's.

With the monitor enabled, every guard evaluation of a loop activation
projects the store onto the guard's undeclassified variables; seeing the
same projection twice within one activation stops execution with an
aperiodicity violation.  The loop takes its guard's ticks after that
observation, which may stop the run first.  A loop whose guard holds only
while some variable is non-empty, and whose every pass shortens that
variable, is not observed (``Interp.discharged``): the length is a ranking
function (Podelski and Rybalchenko, 2004), so no projection could repeat,
no verdict changes, and the loop keeps no projections.  Nor is a loop
whose every pass lengthens one of its guard's undeclassified variables by
one symbol: the projections then differ in that variable's length.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from . import opreg, words
from .syntax import (
    Assign,
    Break,
    Declass,
    If,
    OpApp,
    OracleBreak,
    OracleCall,
    Program1,
    Record,
    Seq,
    Skip,
    Var,
    While,
    seq_chain,
    undeclassified_vars,
)

DEFAULT_BUDGET = 10_000_000


class ExecStats(Record):
    __slots__ = ("steps", "loop_iterations", "max_store_size", "oracle_calls", "obk_events")

    def __init__(self, steps: int = 0, loop_iterations: Counter | None = None,
                 max_store_size: int = 0, oracle_calls: int = 0, obk_events: list | None = None):
        self.steps = steps
        self.loop_iterations = Counter() if loop_iterations is None else loop_iterations
        self.max_store_size = max_store_size
        self.oracle_calls = oracle_calls
        self.obk_events = [] if obk_events is None else obk_events

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "loop_iterations": {str(k): v for k, v in sorted(self.loop_iterations.items())},
            "max_store_size": self.max_store_size,
            "oracle_calls": self.oracle_calls,
        }


class RuntimeStop(Exception):
    """A run that ends without a result; each kind names itself by ``subcode``."""


class BudgetExhausted(RuntimeStop):
    subcode = "budget-exhausted"


class TopLevelBreak(RuntimeStop):
    subcode = "top-level-break"


class AperiodicityViolation(RuntimeStop):
    subcode = "aperiodicity-violation"

    def __init__(self, loop_id, iteration, witness):
        super().__init__(
            f"loop {loop_id} revisited an equivalent store at guard "
            f"evaluation {iteration}: {witness}"
        )
        self.loop_id = loop_id
        self.iteration = iteration
        self.witness = witness


class LoopMonitorState(Record):
    """Projections seen at guard evaluations of one loop activation."""

    __slots__ = ("loop_id", "uvars", "seen", "evaluations")

    def __init__(self, loop_id: int, uvars: tuple, seen: set | None = None, evaluations: int = 0):
        self.loop_id = loop_id
        self.uvars = uvars
        self.seen = set() if seen is None else seen
        self.evaluations = evaluations

    def observe(self, store: dict):
        """Record the current projection; return a violation witness or None."""
        self.evaluations += 1
        projection = tuple(map(store.get, self.uvars, repeat(words.EPSILON)))
        if projection in self.seen:
            return dict(zip(self.uvars, projection))
        self.seen.add(projection)
        return None


def store_size(store: dict) -> int:
    return sum(map(len, store.values()))


# A compiled expression is a tuple (prefix, fn, pure, read, call): take
# ``prefix`` ticks in one check, then call ``fn(m, store)``, which takes any
# later ticks itself.  A pure expression's fn is a tick-free kernel and its
# prefix is its size; a pure variable or constant also has ``read``, the
# (key, default) of a ``store.get`` that yields its value.  A constant w reads
# as ``store.get(None, w)``, since no variable is named None.  A pure operator
# on one or two such reads also has ``call``, the pair (operator, reads), so
# an assignment can apply it in its own frame.  A compiled statement is the
# pair (prefix, fn).


def _read(key, default) -> tuple:
    return 1, lambda m, store: store.get(key, default), True, (key, default), None


def _declass(w1: str, w2: str) -> str:
    return words.unary(min(len(w1), len(w2)))


def _kernel(fn, args: list):
    """Tick-free closure of ``fn`` on one or two pure operands; two reads run inline."""
    if len(args) == 1:
        fa = args[0][1]
        return lambda m, store: fn(fa(m, store))
    (_, fa, _, ra, _), (_, fb, _, rb, _) = args
    if ra and rb:
        (ka, da), (kb, db) = ra, rb
        return lambda m, store: fn(store.get(ka, da), store.get(kb, db))
    return lambda m, store: fn(fa(m, store), fb(m, store))


def _node(args: list, finish) -> tuple:
    """An impure node: its tick and its first operand's prefix make its prefix.

    Each later operand's prefix is taken just before that operand runs;
    ``finish(m, store, values)`` then does what the node does.
    """
    if not args:
        return 1, lambda m, store: finish(m, store, []), False, None, None
    first, rest = args[0][1], [a[:2] for a in args[1:]]

    def node(m, store):
        values = [first(m, store)]
        for k, fn in rest:
            m.tick(k)
            values.append(fn(m, store))
        return finish(m, store, values)
    return 1 + args[0][0], node, False, None, None


def _apply(fn, args: list) -> tuple:
    """``fn``, which is total, applied to ``args``: a kernel when they are pure."""
    if not args:
        return _read(None, fn())
    size = 1
    for a in args:
        if not a[2]:
            return _node(args, lambda m, store, values: fn(*values))
        size += a[0]
    reads = [a[3] for a in args]
    call = (fn, reads) if all(reads) else None
    return size, _kernel(fn, args), True, None, call


_DEC, _TL, _APPEND = (opreg.BUILTINS.lookup(op).fn for op in ("dec", "tl", "append"))


class Interp:
    """The evaluator core.

    Closures read the budget, stats and frame size off the interpreter they
    are given and keep no reference to it.  Hot closures tick inline.
    """

    def __init__(self, budget: int = DEFAULT_BUDGET, monitor: bool = False):
        self.budget = budget
        self.monitor = monitor
        self.stats = ExecStats()
        self.size = 0  # word symbols held by the current frame
        self.activation_serial = 0
        self.activation_stack: list = []  # (loop_id, serial) of running loops
        self.code: dict = {}  # id(statement) -> (statement, its closure)
        self.writes: list = []  # (assignment, its call) of each one compiled, in order
        self.loop = None  # what discharged() reads: a compiled loop's guard call and writes

    def tick(self, k: int = 1):
        """Take k steps in one check."""
        st = self.stats
        n = st.steps + k
        if n > self.budget:
            self.exhausted()
        st.steps = n

    def exhausted(self):
        """Stop where ticking one step at a time would have: at budget + 1."""
        self.stats.steps = self.budget + 1
        raise BudgetExhausted(f"step budget of {self.budget} exhausted")

    def note_store(self, store: dict):
        """Make ``store`` the current frame and count its size."""
        self.size = store_size(store)
        if self.size > self.stats.max_store_size:
            self.stats.max_store_size = self.size

    def compiled(self, s):
        """The closure running statement ``s`` and its prefix, compiled once."""
        entry = self.code.get(id(s))
        if entry is None:
            k, fn = self.compile_stmt(s)

            def run(m, store):
                m.tick(k)
                return fn(m, store)
            # The entry holds s alive, so no other object can take its id.
            entry = self.code[id(s)] = (s, run)
        return entry[1]

    # -- expressions

    def evaluate(self, e, store: dict) -> str:
        """The value of expression ``e`` in ``store``, its steps counted."""
        k, fn = self.compile_expr(e)[:2]
        self.tick(k)
        return fn(self, store)

    def compile_expr(self, e) -> tuple:
        cls = type(e)
        if cls is Var:
            return _read(e.name, words.EPSILON)
        if cls is OpApp:
            if e.op.startswith(opreg.CONST_PREFIX):
                return _read(None, e.op[len(opreg.CONST_PREFIX):])
            args = [self.compile_expr(a) for a in e.args]
            return _apply(opreg.BUILTINS.lookup(e.op).fn, args)
        if cls is Declass:
            return _apply(_declass, [self.compile_expr(e.expr), self.compile_expr(e.bound)])
        if cls is OracleCall:
            oracle, args = e.oracle, [self.compile_expr(a) for a in e.args]
            return _node(args, lambda m, store, values: m.apply_oracle(store, oracle, values))
        raise TypeError(f"not an expression: {e!r}")

    # -- statements

    def compile_stmt(self, s) -> tuple:
        cls = type(s)
        if cls is Assign:
            # A read, or an operator on one or two reads, runs in this frame.
            var, (k, expr, _, read, call) = s.var, self.compile_expr(s.expr)
            self.writes.append((s, call))
            fn, reads = call or (None, [read] if read else [])
            if len(reads) == 2:
                (ka, da), (kb, db) = reads

                def assign(m, store):
                    new = fn(store.get(ka, da), store.get(kb, db))
                    m.size = size = m.size + len(new) - len(store.get(var, words.EPSILON))
                    store[var] = new
                    if size > m.stats.max_store_size:
                        m.stats.max_store_size = size
                    return False
            elif reads and fn:
                ((ka, da),) = reads

                def assign(m, store):
                    new = fn(store.get(ka, da))
                    m.size = size = m.size + len(new) - len(store.get(var, words.EPSILON))
                    store[var] = new
                    if size > m.stats.max_store_size:
                        m.stats.max_store_size = size
                    return False
            elif reads:
                ((ka, da),) = reads

                def assign(m, store):
                    new = store.get(ka, da)
                    m.size = size = m.size + len(new) - len(store.get(var, words.EPSILON))
                    store[var] = new
                    if size > m.stats.max_store_size:
                        m.stats.max_store_size = size
                    return False
            else:
                def assign(m, store):
                    new = expr(m, store)
                    m.size = size = m.size + len(new) - len(store.get(var, words.EPSILON))
                    store[var] = new
                    if size > m.stats.max_store_size:
                        m.stats.max_store_size = size
                    return False
            return 1 + k, assign
        if cls is Seq:
            # k statements apply the binary sequence rule k-1 times: one tick
            # just before each statement but the last, taken with its prefix.
            codes = [self.compile_stmt(t) for t in s.stmts]
            codes[:-1] = [(k + 1, fn) for k, fn in codes[:-1]]
            (k, first), rest = codes[0], codes[1:]

            def seq(m, store):
                if first(m, store):
                    return True
                st = m.stats
                for k, fn in rest:
                    n = st.steps + k
                    if n > m.budget:
                        m.exhausted()
                    st.steps = n
                    if fn(m, store):
                        return True
                return False
            return k, seq
        if cls is If:
            k, guard = self.compile_expr(s.guard)[:2]
            then, orelse = self.compile_stmt(s.then), self.compile_stmt(s.orelse)

            def if_(m, store):
                kb, branch = then if guard(m, store) == words.TRUE else orelse
                st = m.stats
                n = st.steps + kb
                if n > m.budget:
                    m.exhausted()
                st.steps = n
                return branch(m, store)
            return 1 + k, if_
        if cls is While:
            return self.compile_while(s)
        if cls is Skip:
            return 1, lambda m, store: False
        if cls is Break:
            k, guard = self.compile_expr(s.guard)[:2]
            return 1 + k, lambda m, store: guard(m, store) == words.TRUE
        if cls is OracleBreak:
            oracle, ref_vars = s.oracle, s.ref_vars

            def oracle_break(m, store, values):
                left = m.apply_oracle(store, oracle, values)
                reference = [store.get(v, words.EPSILON) for v in ref_vars]
                right = m.apply_oracle(store, oracle, reference)
                if m.activation_stack:
                    loop_id, serial = m.activation_stack[-1]
                    m.stats.obk_events.append((loop_id, serial, len(left), len(right)))
                return len(left) > len(right)
            return _node([self.compile_expr(a) for a in s.call_args], oracle_break)[:2]
        raise TypeError(f"not a statement: {s!r}")

    def compile_while(self, s: While) -> tuple:
        loop_id, (kg, guard, _, _, test) = s.loop_id, self.compile_expr(s.guard)
        first = len(self.writes)
        kb, body = self.compile_stmt(s.body)
        kb += 1  # the unrolled sequence rule
        self.loop = (test, self.writes[first:])
        if self.monitor and not self.discharged(s):
            # The guard's ticks follow the observation, which may stop first.
            uvars, again = tuple(sorted(undeclassified_vars(s.guard))), 1
        else:
            uvars, again = None, 1 + kg

        def while_(m, store):
            st = m.stats
            state = None if uvars is None else LoopMonitorState(loop_id, uvars)
            m.activation_serial += 1
            m.activation_stack.append((loop_id, m.activation_serial))
            iterations = 0
            try:
                while True:
                    if state is not None:
                        witness = state.observe(store)
                        if witness is not None:
                            raise AperiodicityViolation(loop_id, state.evaluations, witness)
                        m.tick(kg)
                    if guard(m, store) != words.TRUE:
                        return False
                    iterations += 1
                    n = st.steps + kb
                    if n > m.budget:
                        m.exhausted()
                    st.steps = n
                    if body(m, store):
                        # A break inside the body terminates the loop normally.
                        return False
                    n = st.steps + again  # the while rule, at the next guard
                    if n > m.budget:
                        m.exhausted()
                    st.steps = n
            finally:
                m.activation_stack.pop()
                if iterations:
                    st.loop_iterations[loop_id] += iterations
        return again, while_

    def discharged(self, s: While) -> bool:
        """Is loop ``s`` ranked by the length of a guard variable v?

        It is when the body writes v once, by one of its own statements, and
        either that write is ``v := dec(v)`` or ``v := tl(v)`` and the guard
        holds only while v is non-empty (``v != eps``, ``v > c``, ``c < v``,
        or ``c <= v`` for a non-empty constant c), or that write is
        ``v := v + c`` for a one-symbol constant c and v is an undeclassified
        variable of the guard; the writes per variable are counted once.

        ``compile_while`` asks once it has compiled the loop, and the answer
        comes from that compile, ``self.loop``: the guard's call and the
        (assignment, call) of each assignment in the body, nested ones included.
        """
        (test, writes), g = self.loop, s.guard
        shrinks = uvars = own = None
        if test and type(g) is OpApp and len(test[1]) == 2:  # a comparison of two reads
            (v, _), (key, c) = test[1][::-1] if g.op in ("lt", "le") else test[1]
            holds = {"ne": c == words.EPSILON, "gt": True, "lt": True, "le": c != words.EPSILON}
            shrinks = v if key is None and holds.get(g.op) else None  # a constant's key is None
        for t, call in writes:
            if call is None:
                continue
            (fn, reads), v = call, t.var
            if fn is _DEC or fn is _TL:
                ranked = v == shrinks and reads == [(v, words.EPSILON)]
            elif fn is _APPEND:  # a variable w reads as (w, eps): it appends no one symbol
                ranked = reads[0] == (v, words.EPSILON) and len(reads[1][1]) == 1 and v in (
                    uvars := undeclassified_vars(g) if uvars is None else uvars)
            else:
                continue
            if ranked and own is None:
                own, count = set(map(id, seq_chain(s.body))), Counter(u.var for u, _ in writes)
            if ranked and id(t) in own and count[v] == 1:
                return True
        return False

    def run_body(self, store: dict, body, ret: str, where: str) -> str:
        """Run ``body`` in frame ``store``, return ``ret``; a break escaping ``where`` stops."""
        self.note_store(store)
        if self.compiled(body)(self, store):
            raise TopLevelBreak(f"a break escaped {where}; the result is undefined")
        return store.get(ret, words.EPSILON)

    def run(self, program: Program1, inputs) -> str:
        if len(inputs) != len(program.params):
            raise ValueError(
                f"program expects {len(program.params)} inputs, got {len(inputs)}"
            )
        store = dict(zip(program.params, map(words.word, inputs)))
        return self.run_body(store, program.body, program.ret, "the program body")
