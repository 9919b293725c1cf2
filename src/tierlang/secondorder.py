"""Second-order programs: guardedness, simple types, level typing, evaluation.

A second-order program boxes its inputs (order-1 oracle variables and
order-0 words), declares procedures, and runs one term.  Guardedness confines
oracle calls to assignment right-hand sides (bare, or as the first operand of
truncate or declass) and to size-comparison breaks; inside a loop every
oracle-carrying assignment must directly follow a break comparing that same
call against a fixed reference call.  One walk per body decides it (see
``check_guarded``), counting an expression's calls with ``collect_names``.

Arities are the parser's: every use of an oracle variable, and every closure
position the main term passes it to, has one arity.  Simple typing decides
the rest once: procedures are declared once and closed, oracle calls name
order-1 parameters, and each call of the main term fits its procedure, with
every name bound.

Level inference reuses the first-order constraint engine
(``safety1.infer_levels``) on guarded bodies, so it never decides again
where an oracle call may sit; a call sits at the infinite level.  Each body
is inferred from the loop-free context; its ``InferenceResult``, kept in
``Safety2Result.checks``, gives the procedure's variable environment and
body level, the report's omega, and builds its derivation on first read.

Evaluation extends the first-order evaluator core (``interp1.Interp``),
which runs every expression and statement; ``Interp2`` adds procedure
calls, oracle application and terms.  A procedure call copies the caller's
store, binds parameters and locals, and fixes the oracle environment for
the duration of the body, which ``Interp.run_body`` runs as it runs a
first-order program: a break that escapes it stops the run.  Closure bodies
evaluate under the store current at the oracle call, with the closure's
binders shadowing it.  A ``prog:`` oracle runs as a nested first-order run
whose steps count toward the whole run's budget; one sub-interpreter per
run serves every such call, so each oracle program is compiled once per
run.  One rule covers both kinds of repeat.  A ``prog:`` call with the
arguments of one of the run's ``PROG_ANSWERS`` most recent ``prog:`` calls,
and a closure application with the arguments and the values of every name
it can read or shadow of one of the run's ``PROG_ANSWERS`` most recent
applications, take the answer from its table and the steps and statistics
its first evaluation took, unless they pass the budget left; so answers,
steps, statistics and stops are those of fresh evaluations.  A run starts
as ``Interp2(program, oracles, budget, monitor).run(inputs)``, where
``program`` passes ``simple_typecheck`` and ``oracles`` maps each boxed
oracle name to an ``Oracle`` of its arity; a missing or mismatched oracle,
or a wrong input count, is a ``ValueError`` before the run starts.  After a
result or a ``RuntimeStop``, ``interp.stats`` holds the whole run's
statistics, a stop inside a ``prog:`` oracle included.  The boxed oracles
live in the run's oracle table (``Interp2.boxed``), never in a store, so
every store holds words only.
"""

from __future__ import annotations

from collections import Counter

from . import interp1, opreg, words
from .interp1 import DEFAULT_BUDGET
from .parser import parse_file, pp_expr
from .safety1 import InferenceResult, infer_levels
from .syntax import (
    Assign,
    Break,
    Call,
    ClosureVar,
    Declass,
    If,
    Lambda,
    OpApp,
    OracleBreak,
    OracleCall,
    Procedure,
    Program1,
    Program2,
    Record,
    Seq,
    TermVar,
    While,
    collect_names,
    level_str,
    stmt_vars,
)

# ---------------------------------------------------------------------------
# Guardedness


class GuardednessError(Exception):
    def __init__(self, clause: int, where: str, message: str):
        self.clause = clause
        self.where = where
        super().__init__(f"clause ({clause}) at {where}: {message}")


def _oracle_free(e, proc: Procedure, where: str) -> None:
    """Clause (1) for ``e``; ``where`` is formatted with ``e`` when it fails."""
    oracles = []
    collect_names(e, set(), oracles)
    if oracles:
        raise GuardednessError(1, f"procedure {proc.name}, " + where.format(pp_expr(e)),
                               "oracle calls may only appear in assignments or breaks")


def _check_guarded_stmt(s, in_loop: bool, proc: Procedure, prev=None) -> None:
    """Check ``s``, which follows ``prev`` in its sequence, within ``proc``."""
    kind = type(s)
    if kind is Seq:  # prev is None here: a Seq never holds a Seq
        for st in s.stmts:
            _check_guarded_stmt(st, in_loop, proc, prev)
            prev = st
    elif kind is Assign:
        e, oracles = s.expr, []
        collect_names(e, set(), oracles)
        if not oracles:
            return
        call = e  # the one permitted call: bare, or truncate's or declass's first operand
        if type(e) is OpApp and e.op == "truncate":
            call = e.args[0]
        elif type(e) is Declass:
            call = e.expr
        if len(oracles) > 1 or type(call) is not OracleCall:
            clause, message = 1, (
                "an oracle call may only be the whole right-hand side or "
                "the first operand of truncate or declass")
        elif in_loop and not (type(prev) is OracleBreak and prev.oracle == call.oracle
                              and prev.call_args == call.args):
            clause, message = 2, (
                "inside a loop an oracle-carrying assignment must directly "
                "follow break(|X(e...)| > |X(vars)|) on the same call")
        else:
            return
        raise GuardednessError(
            clause, f"procedure {proc.name}, {s.var} := {pp_expr(e)}", message)
    elif kind is If:
        _oracle_free(s.guard, proc, "if({})")
        _check_guarded_stmt(s.then, in_loop, proc)
        _check_guarded_stmt(s.orelse, in_loop, proc)
    elif kind is While:
        _oracle_free(s.guard, proc, "while({})")
        _check_guarded_stmt(s.body, True, proc)
    elif kind is Break:
        _oracle_free(s.guard, proc, "break({})")
    elif kind is OracleBreak:
        for a in s.call_args:
            _oracle_free(a, proc, "oracle break argument")


def check_guarded(program: Program2) -> None:
    """Raise GuardednessError unless every oracle call is properly confined.

    One walk per body, earlier procedures first: a guard before its branches
    or body, clause (1) of an assignment before clause (2), which reads the
    previous statement the walk carries; error text is built only on failure.
    """
    for proc in program.procedures:
        _check_guarded_stmt(proc.body, False, proc)


# ---------------------------------------------------------------------------
# Simple types


class SimpleTypeError(Exception):
    pass


def _type_term(t, local0: frozenset, procs: dict, boxed_words: set,
               boxed_oracles: set) -> None:
    """Type a term: a TermVar or a Call, the only terms the parser makes."""
    if isinstance(t, TermVar):
        if t.name not in local0 and t.name not in boxed_words:
            raise SimpleTypeError(f"unbound term variable {t.name}")
        return
    proc = procs.get(t.proc)
    if proc is None:
        raise SimpleTypeError(f"call of undeclared procedure {t.proc}")
    if len(t.closures) != len(proc.oracle_params):
        raise SimpleTypeError(
            f"{t.proc} expects {len(proc.oracle_params)} closure(s), "
            f"got {len(t.closures)}"
        )
    for c, (oname, arity) in zip(t.closures, proc.oracle_params):
        if isinstance(c, ClosureVar):
            if c.name not in boxed_oracles:
                raise SimpleTypeError(
                    f"closure variable {c.name} is not a boxed oracle"
                )
        else:
            if len(c.params) != arity:
                raise SimpleTypeError(
                    f"closure for {oname} of {t.proc} must take "
                    f"{arity} argument(s), got {len(c.params)}"
                )
            _type_term(c.body, local0 | frozenset(c.params), procs,
                       boxed_words, boxed_oracles)
    if len(t.args) != len(proc.params):
        raise SimpleTypeError(
            f"{t.proc} expects {len(proc.params)} word argument(s), "
            f"got {len(t.args)}"
        )
    for a in t.args:
        _type_term(a, local0, procs, boxed_words, boxed_oracles)


def simple_typecheck(program: Program2) -> str:
    """Check well-formedness and the simple-type discipline.

    Returns the overall program type (oracles first, then word inputs, then
    the result).
    """
    procs = {}
    for p in program.procedures:
        if p.name in procs:
            raise SimpleTypeError(f"procedure {p.name} declared more than once")
        procs[p.name] = p

    boxed_words = set(program.boxed_words)
    boxed_oracles = {n for n, _ in program.boxed_oracles}

    # Closed procedures: every name used in a body is a parameter or local,
    # and every oracle it calls is an oracle parameter.
    for p in program.procedures:
        names, oracles = {p.ret}, []
        collect_names(p.body, names, oracles)
        loose = names.difference(p.params, p.locals)
        if loose:
            raise SimpleTypeError(
                f"procedure {p.name} is not closed: {sorted(loose)}"
            )
        oracle_params = {n for n, _ in p.oracle_params}
        for oracle in oracles:
            if oracle not in oracle_params:
                raise SimpleTypeError(
                    f"procedure {p.name}: oracle variable "
                    f"{oracle} is not a parameter"
                )

    # Pairwise-disjoint binder sets of the procedures, a procedure's own
    # parameters and locals included; a free name of the main term is an
    # unbound variable, which _type_term rejects.
    groups = []
    for p in program.procedures:
        params = {n for n, _ in p.oracle_params} | set(p.params)
        groups.append((f"parameters of {p.name}", params))
        groups.append((f"locals of {p.name}", set(p.locals)))
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            overlap = groups[i][1] & groups[j][1]
            if overlap:
                raise SimpleTypeError(
                    f"name clash between {groups[i][0]} and {groups[j][0]}: "
                    f"{sorted(overlap)}"
                )

    _type_term(program.main, frozenset(), procs, boxed_words, boxed_oracles)

    parts = ["(" + " -> ".join(["W"] * k) + " -> W)" for _, k in program.boxed_oracles]
    parts += ["W"] * len(program.boxed_words)
    parts.append("W")
    return " -> ".join(parts)


# ---------------------------------------------------------------------------
# Level inference


def infer_procedure_levels(
    proc: Procedure, config: opreg.DeltaConfig | None = None
) -> InferenceResult:
    """Infer a variable environment for one procedure body (context 0, 0).

    The body is guarded, as in ``infer_safety2``: ``check_guarded`` settles
    where oracle calls sit.  An unsafe result's explanation names the procedure.
    """
    names = set(proc.params) | set(proc.locals)
    result = infer_levels(proc.body, names, config)
    if not result.safe:
        result.explanation = f"procedure {proc.name}: {result.explanation}"
    return result


class Safety2Result(Record):
    __slots__ = ("safe", "stage", "explanation", "program_type", "checks")

    def __init__(self, safe: bool, stage: str | None = None, explanation: str | None = None,
                 program_type: str | None = None, checks: dict | None = None):
        self.safe = safe
        self.stage = stage  # failing stage when unsafe
        self.explanation = explanation
        self.program_type = program_type
        self.checks = {} if checks is None else checks  # procedure name -> InferenceResult

    @property
    def derivations(self) -> dict:
        """Procedure name -> typing derivation, each built on first read."""
        return {name: check.derivation for name, check in self.checks.items()}

    def report(self) -> dict:
        return {
            "safe": self.safe,
            "stage": self.stage,
            "explanation": self.explanation,
            "program_type": self.program_type,
            "omega": {  # every body is typed from the loop-free context
                name: {
                    "gamma": {v: level_str(l) for v, l in sorted(check.gamma.items())},
                    "level": level_str(check.body_level),
                    "tin": "0",
                    "tout": "0",
                }
                for name, check in sorted(self.checks.items())
            },
        }


def infer_safety2(
    program: Program2, config: opreg.DeltaConfig | None = None
) -> Safety2Result:
    """Guardedness, then simple types, then per-procedure level inference."""
    try:
        check_guarded(program)
    except GuardednessError as exc:
        return Safety2Result(False, "guardedness", str(exc))
    try:
        program_type = simple_typecheck(program)
    except SimpleTypeError as exc:
        return Safety2Result(False, "simple-type", str(exc))
    result = Safety2Result(True, program_type=program_type)
    for proc in program.procedures:
        check = infer_procedure_levels(proc, config)
        if not check.safe:
            return Safety2Result(
                False, "levels", check.explanation, program_type=program_type
            )
        result.checks[proc.name] = check
    return result


# ---------------------------------------------------------------------------
# Oracles


class Oracle(Record):
    """A named total word function; external input to a second-order run."""

    __slots__ = ("name", "arity", "fn", "program")

    def __init__(self, name: str, arity: int, fn=None, program: Program1 | None = None):
        self.name = name
        self.arity = arity
        self.fn = fn
        self.program = program


def _bitflip(w: str) -> str:
    return w.translate(str.maketrans("01", "10"))


def make_oracle(spec: str) -> Oracle:
    """Build an oracle from a CLI spec string.

    ``builtin:append1``, ``builtin:double``, ``builtin:bitflip``,
    ``builtin:const:WORD``, or ``prog:PATH`` (a first-order program file;
    its parameter count is the oracle's arity).  Any other spec, like a
    missing or mismatched oracle at ``Interp2``, is a ``ValueError``.
    """
    if spec.startswith("builtin:"):
        rest = spec[len("builtin:"):]
        if rest == "append1":
            return Oracle(spec, 1, lambda w: w + "1")
        if rest == "double":
            return Oracle(spec, 1, lambda w: w + w)
        if rest == "bitflip":
            return Oracle(spec, 1, _bitflip)
        if rest.startswith("const:"):
            value = words.word(rest[len("const:"):])
            return Oracle(spec, 1, lambda _w, value=value: value)
        raise ValueError(f"unknown builtin oracle {rest!r}")
    if spec.startswith("prog:"):
        path = spec[len("prog:"):]
        if path.endswith(".tl2"):
            raise ValueError(f"{path} is a .tl2 file; a prog: oracle is a first-order program")
        prog = parse_file(path)
        return Oracle(spec, len(prog.params), program=prog)
    raise ValueError(f"unknown oracle spec {spec!r}")


# ---------------------------------------------------------------------------
# Evaluation

PROG_ANSWERS = 8  # the prog: oracle answers one run keeps


class Interp2(interp1.Interp):
    """The evaluator core plus procedures, closures and oracle application.

    It runs only programs that ``simple_typecheck`` accepts: every procedure
    called is declared and called at its shape, every oracle called is bound
    to a closure of its arity, and every closure variable names a boxed oracle.
    """

    def __init__(self, program: Program2, oracles: dict,
                 budget: int = DEFAULT_BUDGET, monitor: bool = False):
        super().__init__(budget, monitor)
        self.program = program
        self.sigma = {p.name: p for p in program.procedures}
        self.boxed: dict = {}  # boxed oracle names -> the run's oracles
        for (name, arity) in program.boxed_oracles:
            oracle = oracles.get(name)
            if oracle is None:
                raise ValueError(f"no oracle supplied for {name}")
            if oracle.arity != arity:
                raise ValueError(
                    f"oracle for {name} must have arity {arity}, got {oracle.arity}"
                )
            self.boxed[name] = oracle
        self.env: dict = {}  # oracle parameters of the running call -> closures
        self.sub = interp1.Interp()  # runs every prog: oracle
        self.answers: dict = {}  # (id(oracle), *args) -> (answer, steps), oldest first
        self.applied: dict = {}  # closure applications -> (answer, steps, ...), oldest first
        self.scopes: dict = {}  # id(closure) -> the names its applications read or shadow

    def recall(self, table: dict, key):
        """The entry of a recent repeat whose steps fit in the budget left, its steps taken."""
        entry = table.pop(key, None)
        if entry is not None and entry[1] <= self.budget - self.stats.steps:
            table[key] = entry
            self.stats.steps += entry[1]
            return entry
        return None

    @staticmethod
    def remember(table: dict, key, entry):
        table[key] = entry
        if len(table) > PROG_ANSWERS:
            del table[next(iter(table))]

    def scope(self, closure: Lambda) -> tuple:
        """The names an application of ``closure`` can read or shadow, found once."""
        names = self.scopes.get(id(closure))
        if names is None:
            found, terms = set(closure.params), [closure.body]
            while terms:
                t = terms.pop()
                if isinstance(t, TermVar):
                    found.add(t.name)
                    continue
                proc = self.sigma[t.proc]
                found.update(proc.params, proc.locals)
                terms.extend(t.args)
                for c in t.closures:
                    if isinstance(c, Lambda):
                        found.update(c.params)
                        terms.append(c.body)
            names = self.scopes[id(closure)] = tuple(found)
        return names

    def apply_oracle(self, store, name, args):
        st = self.stats
        st.oracle_calls += 1
        closure = self.env[name]
        self.tick()
        if isinstance(closure, ClosureVar):
            return self.call_external(self.boxed[closure.name], args)
        # A repeat is answered from the table with the stats its first
        # evaluation added: the key fixes every value the body can read and
        # every frame's size above the caller's.  Its oracle-break events
        # keep their activations' places; one labelled with the activation
        # running at the call gets the one running now.
        running = self.activation_stack
        key = (id(closure), *args, not running, *map(store.get, self.scope(closure)))
        serial = self.activation_serial
        hit = self.recall(self.applied, key)
        if hit is not None:
            answer, _, calls, iterations, peak, events, started = hit
            st.oracle_calls += calls
            st.loop_iterations.update(iterations)
            st.max_store_size = max(st.max_store_size, self.size + peak)
            st.obk_events.extend(running[-1] + e[2:] if e[0] is None else
                                 (e[0], serial + e[1], *e[2:]) for e in events)
            self.activation_serial += started
            return answer
        inner = dict(store)
        inner.update(zip(closure.params, args))
        steps, calls, first = st.steps, st.oracle_calls, len(st.obk_events)
        counted, peak = st.loop_iterations, st.max_store_size
        st.loop_iterations, st.max_store_size = Counter(), self.size
        try:
            answer = self.eval_term(inner, closure.body)
        finally:  # a stop is never kept, and its stats are the whole run's
            iterations, st.loop_iterations = st.loop_iterations, counted
            counted.update(iterations)
            peak, st.max_store_size = st.max_store_size, max(peak, st.max_store_size)
        events = [(None, None, *e[2:]) if e[1] <= serial else (e[0], e[1] - serial, *e[2:])
                  for e in st.obk_events[first:]]
        self.remember(self.applied, key, (
            answer, st.steps - steps, st.oracle_calls - calls, iterations,
            peak - self.size, events, self.activation_serial - serial))
        return answer

    def call_external(self, oracle: Oracle, args):
        if oracle.program is None:
            return words.word(oracle.fn(*args))
        # A recent call whose steps fit in the budget left is answered from
        # the table: the program is deterministic and its stats are dropped.
        # Any other call is a first-order run on the budget left.  A stop
        # inside the oracle ends the whole run, whose stats are self.stats; a
        # budget stop names the whole run's budget, not the oracle's.
        key = (id(oracle), *args)
        hit = self.recall(self.answers, key)
        if hit is not None:
            return hit[0]
        sub = self.sub
        sub.budget, sub.stats = self.budget - self.stats.steps, interp1.ExecStats()
        try:
            answer = sub.run(oracle.program, list(args))
        except interp1.BudgetExhausted:
            raise interp1.BudgetExhausted(f"step budget of {self.budget} exhausted") from None
        finally:
            self.stats.steps += sub.stats.steps
        self.remember(self.answers, key, (answer, sub.stats.steps))
        return answer

    # -- terms and programs

    def eval_term(self, store, t) -> str:
        self.tick()
        if isinstance(t, TermVar):
            return store.get(t.name, words.EPSILON)
        proc = self.sigma[t.proc]
        values = [self.eval_term(store, a) for a in t.args]
        frame = dict(store)
        frame.update(zip(proc.params, values))
        frame.update({name: words.EPSILON for name in proc.locals})
        # A stop ends the run, so the caller's frame size and environment
        # need no restoring on the way out of an exception.
        caller_size, caller_env = self.size, self.env
        self.env = {oname: closure
                    for (oname, _), closure in zip(proc.oracle_params, t.closures)}
        where = f"the body of procedure {t.proc}"
        result = self.run_body(frame, proc.body, proc.ret, where)
        self.size, self.env = caller_size, caller_env
        return result

    def run(self, inputs) -> str:
        if len(inputs) != len(self.program.boxed_words):
            raise ValueError(
                f"program expects {len(self.program.boxed_words)} word "
                f"input(s), got {len(inputs)}"
            )
        store = dict(zip(self.program.boxed_words, map(words.word, inputs)))
        return self.eval_term(store, self.program.main)


# ---------------------------------------------------------------------------
# Embedding first-order programs


def embed_program1(p1: Program1) -> Program2:
    """Wrap a first-order program as a one-procedure second-order program."""
    locals_ = sorted((stmt_vars(p1.body) | {p1.ret}) - set(p1.params))
    proc = Procedure(
        "main", [], list(p1.params), locals_, p1.body, p1.ret
    )
    main = Call("main", (), tuple(TermVar(x) for x in p1.params))
    return Program2([], list(p1.params), [proc], main)
