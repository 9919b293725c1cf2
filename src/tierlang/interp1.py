"""Big-step evaluator core, compiled to closures, and first-order runs on it.

Execution follows the rule-per-construct semantics: statements produce a
break flag plus an updated store, a while loop converts a break from its
body into normal termination, and ``declass(e1, e2)`` evaluates to the
unary numeral for min(|w1|, |w2|).

``Interp`` is the one evaluator of expressions and statements.  It compiles
each node once into a Python closure (Feeley and Lapalme, "Using closures
for code generation", 1987) and runs the closures.  Operator entries and
arities are resolved at compile time; a node that cannot run (an unknown
operator, a wrong arity, a bad ``const:`` word, a ``for`` loop) compiles to
a closure that raises the same error when it is executed.  The interpreter
owns the step budget, store-size accounting (kept incrementally for the
current frame), loops with the monitor, and the ``(loop_id, serial)``
activation labels of oracle-break events.  Oracle calls and oracle breaks
go through its ``apply_oracle`` hook, which rejects them in a first-order
run; ``secondorder.Interp2`` extends the core with procedures, closures
and oracles.  A program runs through ``Interp.run`` (``run_program``
wraps it); any single statement runs as its closure,
``interp.compiled(s)(interp, store)``.

A step is one rule application, so the step count is proportional to the
size of the evaluation derivation.  Each closure ticks where its rule
applies, in the order the rules nest, so compiling changes wall time and
never the step count or the point at which the budget runs out.  With the
monitor enabled, every guard evaluation of a loop activation projects the
store onto the guard's undeclassified variables; seeing the same
projection twice within one activation stops execution with an
aperiodicity violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import opreg, words
from .syntax import (
    Assign,
    Break,
    Declass,
    For,
    If,
    OpApp,
    OracleBreak,
    OracleCall,
    Program1,
    Seq,
    Skip,
    Var,
    While,
    undeclassified_vars,
)

DEFAULT_BUDGET = 10_000_000


@dataclass
class ExecStats:
    steps: int = 0
    loop_iterations: Counter = field(default_factory=Counter)
    max_store_size: int = 0
    oracle_calls: int = 0
    obk_events: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "loop_iterations": {str(k): v for k, v in sorted(self.loop_iterations.items())},
            "max_store_size": self.max_store_size,
            "oracle_calls": self.oracle_calls,
        }


class RuntimeStop(Exception):
    subcode = "runtime-stop"

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class BudgetExhausted(RuntimeStop):
    subcode = "budget-exhausted"


class TopLevelBreak(RuntimeStop):
    subcode = "top-level-break"


class AperiodicityViolation(RuntimeStop):
    subcode = "aperiodicity-violation"

    def __init__(self, loop_id, iteration, witness, stats=None):
        super().__init__(
            f"loop {loop_id} revisited an equivalent store at guard "
            f"evaluation {iteration}: {witness}",
            stats,
        )
        self.loop_id = loop_id
        self.iteration = iteration
        self.witness = witness


class ExecError(RuntimeStop):
    subcode = "exec-error"


def lookup(store: dict, name: str) -> str:
    return store.get(name, words.EPSILON)


@dataclass
class LoopMonitorState:
    """Projections seen at guard evaluations of one loop activation."""

    loop_id: int
    uvars: tuple
    seen: set = field(default_factory=set)
    evaluations: int = 0

    def observe(self, store: dict):
        """Record the current projection; return a violation witness or None."""
        self.evaluations += 1
        projection = tuple(lookup(store, v) for v in self.uvars)
        if projection in self.seen:
            return dict(zip(self.uvars, projection))
        self.seen.add(projection)
        return None


def store_size(store: dict) -> int:
    # Order-1 values (oracles) held by second-order frames have no size.
    return sum(len(v) for v in store.values() if isinstance(v, str))


class Interp:
    """The evaluator core.  A compiled node is a closure ``fn(interp, store)``.

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

    def tick(self):
        self.stats.steps += 1
        if self.stats.steps > self.budget:
            self.exhausted()

    def exhausted(self):
        raise BudgetExhausted(f"step budget of {self.budget} exhausted", self.stats)

    def note_store(self, store: dict):
        """Make ``store`` the current frame and count its size."""
        self.size = store_size(store)
        if self.size > self.stats.max_store_size:
            self.stats.max_store_size = self.size

    def apply_oracle(self, store: dict, name: str, args: list) -> str:
        """Answer of oracle ``name`` on ``args``; a first-order run has none."""
        raise ExecError(
            "oracle calls cannot occur in first-order programs", self.stats
        )

    def compiled(self, s):
        """The closure of statement ``s``, compiled on its first use here."""
        entry = self.code.get(id(s))
        if entry is None or entry[0] is not s:
            entry = self.code[id(s)] = (s, self.compile_stmt(s))
        return entry[1]

    # -- expressions

    def compile_expr(self, e):
        if isinstance(e, Var):
            name = e.name

            def var(m, store):
                st = m.stats
                st.steps += 1
                if st.steps > m.budget:
                    m.exhausted()
                value = store.get(name, words.EPSILON)
                if isinstance(value, str):
                    return value
                raise ExecError(f"order-1 variable {name} used as a word", st)
            return var
        if isinstance(e, OpApp):
            return self.compile_op(e.op, [self.compile_expr(a) for a in e.args])
        if isinstance(e, Declass):
            expr, bound = self.compile_expr(e.expr), self.compile_expr(e.bound)

            def declass(m, store):
                m.tick()
                w1 = expr(m, store)
                return words.unary(min(len(w1), len(bound(m, store))))
            return declass
        if isinstance(e, OracleCall):
            oracle, args = e.oracle, [self.compile_expr(a) for a in e.args]

            def oracle_call(m, store):
                m.tick()
                return m.apply_oracle(store, oracle, [a(m, store) for a in args])
            return oracle_call

        def not_expr(m, store):
            m.tick()
            raise ExecError(f"not an expression: {e!r}", m.stats)
        return not_expr

    def compile_op(self, op: str, args: list):
        try:
            entry = opreg.BUILTINS.lookup(op)
        except (opreg.UnknownOperator, words.WordError):
            entry = None
        if entry is None or entry.arity != len(args):
            # Fails when run, after its arguments, as Registry.apply does.
            def failing(m, store):
                m.tick()
                values = [a(m, store) for a in args]
                try:
                    return opreg.BUILTINS.apply(op, values)
                except opreg.UnknownOperator as exc:
                    raise ExecError(f"unknown operator: {exc}", m.stats)
            return failing
        fn = entry.fn
        if not args:
            def op0(m, store):
                m.tick()
                return fn()
            return op0
        if len(args) == 1:
            (a,) = args

            def op1(m, store):
                st = m.stats
                st.steps += 1
                if st.steps > m.budget:
                    m.exhausted()
                return fn(a(m, store))
            return op1
        if len(args) == 2:
            a, b = args

            def op2(m, store):
                st = m.stats
                st.steps += 1
                if st.steps > m.budget:
                    m.exhausted()
                return fn(a(m, store), b(m, store))
            return op2

        def op_n(m, store):
            m.tick()
            return fn(*[a(m, store) for a in args])
        return op_n

    # -- statements

    def compile_stmt(self, s):
        if isinstance(s, Skip):
            def skip(m, store):
                m.tick()
                return False
            return skip
        if isinstance(s, Assign):
            var, expr = s.var, self.compile_expr(s.expr)

            def assign(m, store):
                st = m.stats
                st.steps += 1
                if st.steps > m.budget:
                    m.exhausted()
                value = expr(m, store)
                old = store.get(var)
                store[var] = value
                size = m.size + len(value) - (len(old) if isinstance(old, str) else 0)
                m.size = size
                if size > st.max_store_size:
                    st.max_store_size = size
                return False
            return assign
        if isinstance(s, Seq):
            # k statements apply the binary sequence rule k-1 times: one tick
            # just before each statement but the last.
            *firsts, last = [self.compile_stmt(st) for st in s.stmts]

            def seq(m, store):
                st = m.stats
                for first in firsts:
                    st.steps += 1
                    if st.steps > m.budget:
                        m.exhausted()
                    if first(m, store):
                        return True
                return last(m, store)
            return seq
        if isinstance(s, If):
            guard = self.compile_expr(s.guard)
            then, orelse = self.compile_stmt(s.then), self.compile_stmt(s.orelse)

            def if_(m, store):
                m.tick()
                return (then if guard(m, store) == words.TRUE else orelse)(m, store)
            return if_
        if isinstance(s, While):
            return self.compile_while(s)
        if isinstance(s, Break):
            guard = self.compile_expr(s.guard)

            def break_(m, store):
                m.tick()
                return guard(m, store) == words.TRUE
            return break_
        if isinstance(s, OracleBreak):
            oracle, ref_vars = s.oracle, s.ref_vars
            call_args = [self.compile_expr(a) for a in s.call_args]

            def oracle_break(m, store):
                m.tick()
                left = m.apply_oracle(store, oracle, [a(m, store) for a in call_args])
                right = m.apply_oracle(store, oracle, [lookup(store, v) for v in ref_vars])
                if m.activation_stack:
                    loop_id, serial = m.activation_stack[-1]
                    m.stats.obk_events.append((loop_id, serial, len(left), len(right)))
                return len(left) > len(right)
            return oracle_break
        if isinstance(s, For):
            message = "for loops must be desugared before execution"
        else:
            message = f"not a statement: {s!r}"

        def not_runnable(m, store):
            raise ExecError(message, m.stats)
        return not_runnable

    def compile_while(self, s: While):
        loop_id, guard = s.loop_id, self.compile_expr(s.guard)
        body = self.compile_stmt(s.body)
        uvars = tuple(sorted(undeclassified_vars(s.guard))) if self.monitor else None

        def while_(m, store):
            st = m.stats
            state = None if uvars is None else LoopMonitorState(loop_id, uvars)
            m.activation_serial += 1
            m.activation_stack.append((loop_id, m.activation_serial))
            try:
                while True:
                    st.steps += 1  # one while-rule application per guard evaluation
                    if st.steps > m.budget:
                        m.exhausted()
                    if state is not None:
                        witness = state.observe(store)
                        if witness is not None:
                            raise AperiodicityViolation(
                                loop_id, state.evaluations, witness, st
                            )
                    if guard(m, store) != words.TRUE:
                        return False
                    st.loop_iterations[loop_id] += 1
                    st.steps += 1  # the unrolled sequence rule
                    if st.steps > m.budget:
                        m.exhausted()
                    if body(m, store):
                        # A break inside the body terminates the loop normally.
                        return False
            finally:
                m.activation_stack.pop()
        return while_

    def run(self, program: Program1, inputs) -> str:
        if len(inputs) != len(program.params):
            raise ExecError(
                f"program expects {len(program.params)} inputs, got {len(inputs)}",
                self.stats,
            )
        store = {}
        for name, value in zip(program.params, inputs):
            store[name] = words.word(value)
        self.note_store(store)
        if self.compiled(program.body)(self, store):
            raise TopLevelBreak(
                "a break escaped the program body; the result is undefined",
                self.stats,
            )
        return lookup(store, program.ret)


def run_program(program: Program1, inputs,
                budget: int = DEFAULT_BUDGET, monitor: bool = False):
    """Run a program on input words; returns (result word, stats).

    Raises RuntimeStop subclasses for budget exhaustion, monitored
    aperiodicity violations, and top-level breaks.
    """
    interp = Interp(budget, monitor)
    result = interp.run(program, inputs)
    return result, interp.stats
