"""Big-step evaluator core, and first-order runs on it.

Execution follows the rule-per-construct semantics: statements produce a
break flag plus an updated store, a while loop converts a break from its
body into normal termination, and ``declass(e1, e2)`` evaluates to the
unary numeral for min(|w1|, |w2|).

``Interp`` is the one evaluator of expressions and statements.  It owns the
step budget, store-size accounting, loops with the monitor, and the
``(loop_id, serial)`` activation labels of oracle-break events.  Oracle
calls and oracle breaks go through its ``apply_oracle`` hook, which rejects
them in a first-order run; ``secondorder.Interp2`` extends the core with
procedures, closures and oracles.

A step is one rule application, so the step count is proportional to the
size of the evaluation derivation.  With the monitor enabled, every guard
evaluation of a loop activation projects the store onto the guard's
undeclassified variables; seeing the same projection twice within one
activation stops execution with an aperiodicity violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import opreg, words
from .safety1 import undeclassified_vars
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


@dataclass
class ExecOutcome:
    broke: bool  # True when the flow was broken (the bottom flag)
    store: dict
    stats: ExecStats


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


def monitor_guard(state: LoopMonitorState, store: dict):
    """Spec-level entry point: observe one guard evaluation of an activation."""
    return state.observe(store)


class Interp:
    def __init__(self, registry=None, budget: int = DEFAULT_BUDGET, monitor: bool = False):
        self.registry = registry or opreg.builtin_registry()
        self.budget = budget
        self.monitor = monitor
        self.stats = ExecStats()
        self.activation_serial = 0
        self.activation_stack: list = []  # (loop_id, serial) of running loops

    def tick(self, n: int = 1):
        self.stats.steps += n
        if self.stats.steps > self.budget:
            raise BudgetExhausted(
                f"step budget of {self.budget} exhausted", self.stats
            )

    def note_store(self, store: dict):
        # Order-1 values (oracles) held by second-order frames have no size.
        size = sum(len(v) for v in store.values() if isinstance(v, str))
        if size > self.stats.max_store_size:
            self.stats.max_store_size = size

    def apply_oracle(self, store: dict, name: str, args: list) -> str:
        """Answer of oracle ``name`` on ``args``; a first-order run has none."""
        raise ExecError(
            "oracle calls cannot occur in first-order programs", self.stats
        )

    # -- expressions

    def eval_expr(self, store: dict, e) -> str:
        self.tick()
        if isinstance(e, Var):
            value = lookup(store, e.name)
            if not isinstance(value, str):
                raise ExecError(
                    f"order-1 variable {e.name} used as a word", self.stats
                )
            return value
        if isinstance(e, OpApp):
            args = [self.eval_expr(store, a) for a in e.args]
            try:
                return self.registry.apply(e.op, args)
            except opreg.UnknownOperator as exc:
                raise ExecError(f"unknown operator: {exc}", self.stats)
        if isinstance(e, Declass):
            w1 = self.eval_expr(store, e.expr)
            w2 = self.eval_expr(store, e.bound)
            return words.unary(min(len(w1), len(w2)))
        if isinstance(e, OracleCall):
            args = [self.eval_expr(store, a) for a in e.args]
            return self.apply_oracle(store, e.oracle, args)
        raise ExecError(f"not an expression: {e!r}", self.stats)

    # -- statements

    def exec_stmt(self, store: dict, s) -> bool:
        """Execute s in place; returns True when a break escaped (bottom flag)."""
        if isinstance(s, Skip):
            self.tick()
            return False
        if isinstance(s, Assign):
            self.tick()
            store[s.var] = self.eval_expr(store, s.expr)
            self.note_store(store)
            return False
        if isinstance(s, Seq):
            self.tick()
            if self.exec_stmt(store, s.first):
                return True
            return self.exec_stmt(store, s.second)
        if isinstance(s, If):
            self.tick()
            guard = self.eval_expr(store, s.guard)
            branch = s.then if words.truthy(guard) else s.orelse
            return self.exec_stmt(store, branch)
        if isinstance(s, While):
            return self.exec_while(store, s)
        if isinstance(s, Break):
            self.tick()
            return words.truthy(self.eval_expr(store, s.guard))
        if isinstance(s, OracleBreak):
            self.tick()
            left_args = [self.eval_expr(store, a) for a in s.call_args]
            left = self.apply_oracle(store, s.oracle, left_args)
            right_args = [lookup(store, v) for v in s.ref_vars]
            right = self.apply_oracle(store, s.oracle, right_args)
            if self.activation_stack:
                loop_id, serial = self.activation_stack[-1]
                self.stats.obk_events.append((loop_id, serial, len(left), len(right)))
            return len(left) > len(right)
        if isinstance(s, For):
            raise ExecError("for loops must be desugared before execution", self.stats)
        raise ExecError(f"not a statement: {s!r}", self.stats)

    def exec_while(self, store: dict, s: While) -> bool:
        state = None
        if self.monitor:
            state = LoopMonitorState(
                s.loop_id, tuple(sorted(undeclassified_vars(s.guard)))
            )
        self.activation_serial += 1
        self.activation_stack.append((s.loop_id, self.activation_serial))
        try:
            while True:
                self.tick()  # one while-rule application per guard evaluation
                if state is not None:
                    witness = state.observe(store)
                    if witness is not None:
                        raise AperiodicityViolation(
                            s.loop_id, state.evaluations, witness, self.stats
                        )
                guard = self.eval_expr(store, s.guard)
                if not words.truthy(guard):
                    return False
                self.stats.loop_iterations[s.loop_id] += 1
                self.tick()  # the unrolled sequence rule
                if self.exec_stmt(store, s.body):
                    # A break inside the body terminates the loop normally.
                    return False
        finally:
            self.activation_stack.pop()

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
        if self.exec_stmt(store, program.body):
            raise TopLevelBreak(
                "a break escaped the program body; the result is undefined",
                self.stats,
            )
        return lookup(store, program.ret)


def eval_expr(store: dict, e, registry=None) -> str:
    return Interp(registry).eval_expr(store, e)


def exec_stmt(store: dict, s, registry=None, budget: int = DEFAULT_BUDGET,
              monitor: bool = False) -> ExecOutcome:
    interp = Interp(registry, budget, monitor)
    broke = interp.exec_stmt(store, s)
    return ExecOutcome(broke, store, interp.stats)


def run_program(program: Program1, inputs, registry=None,
                budget: int = DEFAULT_BUDGET, monitor: bool = False):
    """Run a program on input words; returns (result word, stats).

    Raises RuntimeStop subclasses for budget exhaustion, monitored
    aperiodicity violations, and top-level breaks.
    """
    interp = Interp(registry, budget, monitor)
    result = interp.run(program, inputs)
    return result, interp.stats
