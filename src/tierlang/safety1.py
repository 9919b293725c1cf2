"""Level inference and checking for first-order programs.

Safety means the program body can be typed from the loop-free context.
Inference works by translating the typing rules into a system of
inequalities over one level unknown per program variable, per while loop,
and per intermediate expression or if-statement position.  The inner and
outer context levels of any position are fully determined by the chain of
enclosing loops, which resolves the two disjunctive side conditions
statically:

* the assignment condition (outer = 0) or (target <= source) is settled by
  whether the assignment sits inside a loop at all;
* the positive-operator condition (result < inner) or (result = 0)
  collapses to result = 0 outside loops and to result < inner inside them,
  because inner loop levels are always at least 1.

What remains is a difference-constraint system (v >= u, v >= u + 1,
bounds against constants) whose least solution one worklist computes; it
is returned as the variable typing environment.  A level term is an
unknown, numbered densely from 0, or ``None`` for the constant level 0 of
the loop-free context; the solution is a list indexed by unknown.
Every body, a second-order procedure's included, is typed from the
loop-free context, so no constant source exceeds 1 and divergence past the
number of unknowns witnesses an unsatisfiable strict cycle.

Only a verdict is computed up front.  Each constraint carries a constant
origin template and the AST node it came from; the text is formatted only
when a failure is explained.  The typing derivation of a safe result is
built on its first read, or at once when a ``DeltaConfig`` must be checked
against it, from the solution alone: variables and loops take their levels
from the environments, oracle calls sit at ``INFINITY``, and every other level
is an unlabelled unknown.  Generation makes those in one fixed order (an
if's before its guard, an operator's or a declass's after its operands),
and the builder takes their solved values back in that order as it walks
the AST; the result keeps only that list, not the constraints.
``check_derivation`` re-checks such a tree rule by rule; one helper checks
the premises of every rule, and a leaf rule (VAR, SKP) has none.

``brute_force_safe`` is an independent oracle: it enumerates variable
environments and rule-directed derivations outright, with all levels drawn
from a finite range.

Oracle calls (second-order bodies) are handled by the same generator: their
level is the infinite level ``INFINITY``, which never becomes a constraint.
Guardedness has settled where an oracle answer sits: as an assignment's
whole right-hand side, or as the first operand of truncate or declass.
Generation settles each of the three at once: truncate accepts the answer,
and a bare or declassified answer is reported unsafe.
"""

from __future__ import annotations

import itertools

from . import interp1, opreg
from .parser import pp_expr
from .syntax import (
    Assign,
    Break,
    Declass,
    If,
    INFINITY,
    OpApp,
    OracleBreak,
    OracleCall,
    Program1,
    Record,
    Seq,
    Skip,
    Var,
    While,
    is_finite,
    iter_stmts,
    level_str,
    program_vars,
    stmt_vars,
)


# ---------------------------------------------------------------------------
# Constraint system


def _describe(node) -> str:
    """A node as source text; a statement by its head."""
    if isinstance(node, Assign):
        return f"{node.var} := {pp_expr(node.expr)}"
    if isinstance(node, If):
        return f"if({pp_expr(node.guard)})"
    if isinstance(node, While):
        return f"while({pp_expr(node.guard)}) [loop {node.loop_id}]"
    if isinstance(node, Break):
        return f"break({pp_expr(node.guard)})"
    if isinstance(node, OracleBreak):
        ref = f"{node.oracle}({', '.join(node.ref_vars)})"
        return f"break(|{node.oracle}(...)| > |{ref}|)"
    return pp_expr(node)


def _origin(why: str, node, arg) -> str:
    """The text of an origin: template ``why`` filled in from ``node``.

    ``{what}`` is the node as source text, ``{node.op}`` its operator and
    ``{arg}`` the value the generator bound with it.
    """
    return why.format(what=_describe(node), node=node, arg=arg)


class Constraints:
    """Difference constraints over level unknowns, and their least solution.

    An unknown is the int ``fresh`` returns; a term is an unknown or
    ``None`` (the constant level 0).  ``INFINITY`` is never a term: generation
    settles every oracle answer before it would reach a constraint.
    An edge ``(src, delta, dst, why, node, arg)`` asks level(dst) >=
    level(src) + delta, an upper bound ``(u, bound, why, node, arg)`` asks
    level(u) <= bound; ``why``, ``node`` and ``arg`` make the constraint's
    origin (see ``_origin``).  A lower bound of 0 can never raise a value
    and is not kept.
    """

    def __init__(self):
        self.unknowns: list = []  # the label of each unknown, by number
        self.edges: list = []
        self.uppers: list = []
        self.failure: tuple | None = None  # (why, node, arg) of the first failure

    def fresh(self, label=None) -> int:
        """A new unknown; ``label`` is text, a (kind, key) pair, or None for eN."""
        self.unknowns.append(label)
        return len(self.unknowns) - 1

    def label(self, unknown: int) -> str:
        """The text of an unknown's label; the n-th unlabelled one reads ``en``."""
        label = self.unknowns[unknown]
        if label is None:
            return f"e{self.unknowns[:unknown + 1].count(None)}"
        return label if isinstance(label, str) else "%s:%s" % label

    def fail(self, why: str, node, arg=None):
        if self.failure is None:
            self.failure = (why, node, arg)

    def le(self, a, b, why: str, node, arg=None):
        """level(a) <= level(b)."""
        self._amount(a, 0, b, why, node, arg)

    def lt(self, a, b, why: str, node, arg=None):
        """level(a) < level(b)."""
        self._amount(a, 1, b, why, node, arg)

    def eq(self, a, b, why: str, node, arg=None):
        """level(a) = level(b)."""
        self._amount(a, 0, b, why, node, arg)
        self._amount(b, 0, a, why, node, arg)

    def _amount(self, a, delta, b, why, node, arg):
        if b is None:
            if a is not None:
                self.uppers.append((a, -delta, why, node, arg))
            elif delta:
                self.fail(why, node, arg)
        elif a is not None or delta:
            self.edges.append((a, delta, b, why, node, arg))

    def solve(self):
        """Least solution, or (None, explanation) when unsatisfiable.

        One LIFO worklist relaxes every edge from all-zero values,
        constant-sourced edges first; an unknown that rises re-pushes its
        out-edges.  A value past ``len(unknowns) + 2`` witnesses a strict
        cycle and is explained by the chain of edges that raised it.
        """
        if self.failure is not None:
            return None, _origin(*self.failure)
        edges = self.edges
        size = len(self.unknowns)
        values = [0] * size
        preds = [None] * size  # the edge that last raised each unknown
        out = [None] * size  # each source's out-edges in order; None if none
        work = [edge for edge in reversed(edges) if edge[0] is not None]
        for edge in reversed(work):
            if out[edge[0]] is None:
                out[edge[0]] = [edge]
            else:
                out[edge[0]].append(edge)
        work += [edge for edge in edges if edge[0] is None]
        bound = size + 2
        while work:
            edge = work.pop()
            src, delta, dst, _, _, _ = edge
            level = delta if src is None else values[src] + delta
            if values[dst] < level:
                values[dst] = level
                preds[dst] = edge
                if level > bound:
                    return None, self._chain(dst, preds)
                edges_out = out[dst]
                if edges_out is not None:
                    work += edges_out
        for unknown, bound, why, node, arg in self.uppers:
            if values[unknown] > bound:
                detail = self._chain(unknown, preds)
                return None, (
                    f"{_origin(why, node, arg)}: needs level({self.label(unknown)}) "
                    f"<= {bound} but other constraints force {values[unknown]}"
                    + (f"; {detail}" if detail else "")
                )
        return values, None

    def _chain(self, unknown: int, preds: list) -> str:
        """The origins of the edges that raised ``unknown``, latest first.

        The walk follows each unknown's raising edge back to a constant or
        to an unknown it has already passed, so a strict cycle is given
        whole and once; an origin text met twice is given once.
        """
        parts = []
        seen = {unknown}
        edge = preds[unknown]
        while edge is not None:
            src, _, _, why, node, arg = edge
            parts.append(_origin(why, node, arg))
            if src is None or src in seen:
                break
            seen.add(src)
            edge = preds[src]
        if not parts:
            return ""
        return "conflicting constraint chain: " + " <- ".join(dict.fromkeys(parts))


# ---------------------------------------------------------------------------
# Constraint generation from the typing rules


class LevelAnalysis:
    """Generates constraints for one statement tree (a program or procedure body)."""

    def __init__(self):
        self.cs = Constraints()
        self.var_ids: dict = {}  # variable name -> its unknown
        self.loop_ids: dict = {}  # loop id -> its unknown

    # -- terms; a context level (inner or outer) is None outside loops and
    # the unknown of a loop inside one

    def var_term(self, name: str) -> int:
        if name not in self.var_ids:
            self.var_ids[name] = self.cs.fresh(("var", name))
        return self.var_ids[name]

    def loop_term(self, loop_id: int) -> int:
        if loop_id not in self.loop_ids:
            self.loop_ids[loop_id] = self.cs.fresh(("loop", loop_id))
        return self.loop_ids[loop_id]

    # -- expressions; generation returns the level term
    #
    # Every operator result, declass result and if-statement gets an
    # unlabelled unknown, made in the order the derivation builder takes
    # the solved levels back: an if's before its guard, an operator's or a
    # declass's after its operands.

    def gen_expr(self, e, tin, tout):
        kind = type(e)
        if kind is Var:
            term = self.var_ids.get(e.name)
            return self.var_term(e.name) if term is None else term
        cs = self.cs
        if kind is OpApp:
            var_ids = self.var_ids
            args = []
            for a in e.args:
                term = var_ids.get(a.name) if type(a) is Var else None
                args.append(self.gen_expr(a, tin, tout) if term is None else term)
            cs.unknowns.append(None)
            result = len(cs.unknowns) - 1
            if e.op.startswith(opreg.CONST_PREFIX):
                return result  # a word constant: neutral, and no operands
            if e.op == "truncate":
                if args[0] is not INFINITY:
                    cs.fail("{what}: truncate's first operand must be an oracle call", e)
                elif args[1] is INFINITY:
                    cs.fail("{what}: the truncation bound cannot be an oracle call", e)
                else:
                    cs.le(tout, args[1], "{what}: the truncation bound must be at or above "
                          "the outermost loop level", e)
                    if tin is not None:
                        cs.lt(result, tin, "{what}: a truncated oracle answer cannot reach "
                              "the innermost loop level", e)
                return result
            kind = opreg.BUILTINS.lookup(e.op).kind
            if kind == "polynomial":
                if tout is not None:
                    cs.fail("{what}: operator {node.op} can grow polynomially and is not "
                            "allowed inside loops", e)
                return result
            edges = cs.edges
            for a in args:
                edges.append((result, 0, a, "{what}: no upward flow through {node.op}", e, None))
            if kind == "positive":
                if tin is None:
                    cs.uppers.append((result, 0, "{what}: outside loops a growing operator's "
                                      "result sits at level 0", e, None))
                else:
                    edges.append((result, 1, tin, "{what}: a growing operator's result stays "
                                   "below the innermost loop level", e, None))
            return result
        if kind is OracleCall:
            for a in e.args:
                self.gen_expr(a, tin, tout)
            return INFINITY
        if kind is Declass:
            t1 = self.gen_expr(e.expr, tin, tout)
            t2 = self.gen_expr(e.bound, tin, tout)
            cs.eq(t2, tout, "the declass bound {what} must sit exactly at the outermost "
                  "loop level", e.bound)
            result = cs.fresh()
            why = "declass(..., {what}): declassified operand caps the result from below"
            if t1 is INFINITY:
                cs.fail(why, e.bound)
            else:
                cs.le(t1, result, why, e.bound)
            cs.le(result, tout, "declass(..., {what}): the result level is capped by the "
                  "outermost loop level", e.bound)
            return result
        raise TypeError(f"not an expression: {e!r}")

    # -- statements; generation returns the floor level terms

    def gen_stmt(self, s, tin, tout):
        cs = self.cs
        kind = type(s)
        if kind is Seq or kind is Assign:  # an assignment is a sequence of one
            var_ids = self.var_ids
            floors = []
            for st in s.stmts if kind is Seq else (s,):
                if type(st) is not Assign:
                    floors += self.gen_stmt(st, tin, tout)
                    continue
                t = self.gen_expr(st.expr, tin, tout)
                gx = var_ids.get(st.var)
                if gx is None:
                    gx = self.var_term(st.var)
                floors.append(gx)
                if t is INFINITY:
                    cs.fail("{what}: an oracle answer cannot be assigned directly; "
                            "truncate or declassify it first", st)
                elif tout is not None:
                    cs.edges.append((gx, 0, t, "{what}: inside a loop the target's level "
                                     "cannot exceed the source's", st, None))
            return floors
        if kind is Skip:
            return []
        if kind is If:
            iota = cs.fresh()
            t = self.gen_expr(s.guard, tin, tout)
            cs.eq(t, iota, "{what}: the branch level is the guard's level", s)
            floors = self.gen_stmt(s.then, tin, tout)
            floors += self.gen_stmt(s.orelse, tin, tout)
            for f in floors:
                cs.le(f, iota, "{what}: branches type at the guard's level", s)
            return [iota]
        if kind is While:
            lam = self.loop_term(s.loop_id)
            cs.lt(None, lam, "{what}: loop levels start at 1", s)
            inner_out = lam if tout is None else tout
            if tout is not None:
                cs.le(lam, tout, "{what}: a nested loop's level is capped by the outermost", s)
            cs.eq(self.gen_expr(s.guard, lam, inner_out), lam,
                  "{what}: the guard types exactly at the loop level", s)
            for f in self.gen_stmt(s.body, lam, inner_out):
                cs.le(f, lam, "{what}: the body types at the loop level", s)
            return [lam]
        if kind is Break:
            cs.le(tin, self.gen_expr(s.guard, tin, tout),
                  "{what}: a break guard sits at or above the innermost loop level", s)
            return [tin]
        if kind is OracleBreak:
            for a in s.call_args:
                self.gen_expr(a, tin, tout)
            for v in s.ref_vars:
                cs.lt(tout, self.var_term(v), "{what}: reference variable {arg} must sit "
                      "strictly above the outermost loop level", s, v)
            return [tin]
        raise TypeError(f"not a statement: {s!r}")


# ---------------------------------------------------------------------------
# Typing derivations


class Judgment(Record):
    __slots__ = ("rule", "subject", "tin", "tout", "level", "children")

    def __init__(self, rule: str, subject, tin, tout, level, children: list | None = None):
        self.rule = rule
        self.subject = subject
        self.tin = tin
        self.tout = tout
        self.level = level
        self.children = [] if children is None else children


class _DerivationBuilder:
    """Turns a solution into a checkable tree, walking the AST once.

    A variable's level is in ``gamma`` and a loop's in ``loop_levels``;
    every other level comes from ``levels``, the solved unlabelled unknowns
    in the order generation made them, taken one at a time in the same
    order: an if's before its guard, an operator's or a declass's after
    its operands.
    """

    def __init__(self, levels: list, gamma: dict, loop_levels: dict):
        self.next_level = iter(levels).__next__
        self.gamma = gamma
        self.loop_levels = loop_levels

    def expr(self, e, tin, tout) -> Judgment:
        if isinstance(e, Var):
            return Judgment("VAR", e, tin, tout, self.gamma[e.name])
        if isinstance(e, OpApp):
            kids = [self.expr(a, tin, tout) for a in e.args]
            return Judgment("OP", e, tin, tout, self.next_level(), kids)
        if isinstance(e, Declass):
            kids = [self.expr(e.expr, tin, tout), self.expr(e.bound, tin, tout)]
            return Judgment("DCL", e, tin, tout, self.next_level(), kids)
        if isinstance(e, OracleCall):
            kids = [self.expr(a, tin, tout) for a in e.args]
            return Judgment("ORC", e, tin, tout, INFINITY, kids)
        raise TypeError(f"not an expression: {e!r}")

    def raise_to(self, j: Judgment, level) -> Judgment:
        if j.level == level:
            return j
        return Judgment("SUB", j.subject, j.tin, j.tout, level, [j])

    def stmt(self, s, tin, tout) -> Judgment:
        if isinstance(s, Skip):
            return Judgment("SKP", s, tin, tout, 0)
        if isinstance(s, Assign):
            kid = self.expr(s.expr, tin, tout)
            return Judgment("ASG", s, tin, tout, self.gamma[s.var], [kid])
        if isinstance(s, Seq):
            # One k-ary node stands for k-1 binary sequence rules at one level.
            kids = [self.stmt(st, tin, tout) for st in s.stmts]
            lvl = max(k.level for k in kids)
            return Judgment("SEQ", s, tin, tout, lvl, [self.raise_to(k, lvl) for k in kids])
        if isinstance(s, If):
            lvl = self.next_level()
            g = self.expr(s.guard, tin, tout)
            t = self.stmt(s.then, tin, tout)
            o = self.stmt(s.orelse, tin, tout)
            return Judgment(
                "CND", s, tin, tout, lvl,
                [g, self.raise_to(t, lvl), self.raise_to(o, lvl)],
            )
        if isinstance(s, While):
            lam = self.loop_levels[s.loop_id]
            outside = tout == 0
            inner_out = lam if outside else tout
            g = self.expr(s.guard, lam, inner_out)
            b = self.stmt(s.body, lam, inner_out)
            rule = "WI" if outside and tin == 0 else "WH"
            return Judgment(rule, s, tin, tout, lam, [g, self.raise_to(b, lam)])
        if isinstance(s, Break):
            g = self.expr(s.guard, tin, tout)
            return Judgment("BRK", s, tin, tout, tin, [g])
        if isinstance(s, OracleBreak):
            refs = tuple(Var(v) for v in s.ref_vars)
            calls = OracleCall(s.oracle, s.call_args), OracleCall(s.oracle, refs)
            kids = [self.expr(e, tin, tout) for e in calls + refs]
            return Judgment("OBK", s, tin, tout, tin, kids)
        raise TypeError(f"not a statement: {s!r}")


# ---------------------------------------------------------------------------
# Inference


class TooLarge(Exception):
    pass


class InferenceResult(Record):
    __slots__ = ("safe", "gamma", "loop_levels", "body_level", "explanation",
                 "_build", "_derivation")
    _compared = _shown = __slots__[:5]

    def __init__(self, safe: bool, gamma: dict | None = None, loop_levels: dict | None = None,
                 body_level=None, explanation: str | None = None, _build=None):
        self.safe = safe
        self.gamma = gamma
        self.loop_levels = loop_levels
        self.body_level = body_level
        self.explanation = explanation
        # Builds the derivation of a safe result from the statement tree and
        # the solved levels it holds; dropped once it has run.
        self._build = _build
        self._derivation = None

    @property
    def derivation(self) -> Judgment | None:
        """The typing derivation of a safe result, built once, on first read."""
        if self._build is not None:
            self._derivation = self._build()
            self._build = None
        return self._derivation

    def report(self) -> dict:
        return {
            "safe": self.safe,
            "gamma": {k: level_str(v) for k, v in sorted((self.gamma or {}).items())},
            "loop_levels": {
                str(k): level_str(v) for k, v in sorted((self.loop_levels or {}).items())
            },
            "explanation": self.explanation,
        }


def infer_safety(
    program: Program1, config: opreg.DeltaConfig | None = None
) -> InferenceResult:
    """Infer a variable typing environment, or explain why none exists.

    Returns the pointwise least solution of the generated constraint
    system.  An optional DeltaConfig restricts the admissible operator
    levels; restrictions are enforced against the inferred witness.
    """
    # Generation gives every variable of the body its unknown as it meets
    # it; only parameters and the result may not occur there.
    names = set(program.params) | {program.ret}
    return infer_levels(program.body, names, config)


def infer_levels(body, names, config=None) -> InferenceResult:
    """Level inference for one statement tree (a program or procedure body).

    ``names`` are variables to solve for besides those of the body; the body
    is typed from the loop-free context.  The derivation is left to the
    result to build on demand.
    """
    analysis = LevelAnalysis()
    for name in sorted(names):
        analysis.var_term(name)
    floors = analysis.gen_stmt(body, None, None)
    values, explanation = analysis.cs.solve()
    if values is None:
        return InferenceResult(False, explanation=explanation)
    gamma = {name: values[u] for name, u in analysis.var_ids.items()}
    loops = {loop_id: values[u] for loop_id, u in analysis.loop_ids.items()}
    levels = [v for v, label in zip(values, analysis.cs.unknowns) if label is None]
    body_level = max((0 if f is None else values[f] for f in floors), default=0)
    del analysis, values, floors  # free the constraints before any derivation
    result = InferenceResult(
        True, gamma, loops, body_level,
        _build=lambda: _DerivationBuilder(levels, gamma, loops).stmt(body, 0, 0),
    )
    if config is not None:
        offending = _config_violation(result.derivation, config)
        if offending is not None:
            return InferenceResult(False, explanation=offending)
    return result


def _config_violation(deriv: Judgment, config) -> str | None:
    if deriv.rule == "OP":
        candidate = tuple(c.level for c in deriv.children) + (deriv.level,)
        if not opreg.delta_membership(
            deriv.subject.op, deriv.tin, deriv.tout, candidate, config
        ):
            return (
                f"operator {deriv.subject.op} with levels "
                f"{opreg.candidate_str(candidate)} is forbidden by the "
                f"registry restriction"
            )
    for c in deriv.children:
        hit = _config_violation(c, config)
        if hit is not None:
            return hit
    return None


# ---------------------------------------------------------------------------
# Derivation checking


def check_derivation(program, gamma: dict, deriv: Judgment) -> bool:
    """Mechanically re-check a derivation of ``program.body`` against the typing rules.

    ``program`` is a Program1 or a second-order Procedure.  Accepts derivations
    with explicit SUB nodes as well as folded ones (statement nodes presented
    at a level above their natural one).  One helper, ``_check_kids``, checks
    the premises of every rule: exactly the subjects the rule names, in order,
    each in the context the rule names, and each by its own rule.  A leaf rule
    (VAR, SKP) has none.
    """
    if any(v == INFINITY for v in gamma.values()):
        return False  # first-order environments map into the finite levels
    if deriv.subject is not program.body and deriv.subject != program.body:
        return False
    if deriv.tin != 0 or deriv.tout != 0:
        return False
    return _check_node(deriv, gamma)


def _check_kids(j, exprs, stmts, gamma, context=None) -> bool:
    """``j``'s premises judge exactly ``exprs``, as expressions, then ``stmts``,
    as statements, in order, each in ``context`` (by default ``j``'s own)."""
    kids = j.children
    tin, tout = context or (j.tin, j.tout)
    subjects = (*exprs, *stmts)
    return len(kids) == len(subjects) and all(
        k.subject == subject and k.tin == tin and k.tout == tout
        and (_check_expr_node if i < len(exprs) else _check_node)(k, gamma)
        for i, (k, subject) in enumerate(zip(kids, subjects))
    )


def _check_expr_node(j, gamma) -> bool:
    e = j.subject
    if j.rule == "VAR":
        return (isinstance(e, Var) and gamma.get(e.name, 0) == j.level
                and _check_kids(j, (), (), gamma))
    if j.rule == "OP":
        if not (isinstance(e, OpApp) and _check_kids(j, e.args, (), gamma)):
            return False
        candidate = tuple(k.level for k in j.children) + (j.level,)
        try:
            return opreg.delta_membership(e.op, j.tin, j.tout, candidate)
        except (opreg.UnknownOperator, ValueError):
            return False
    if j.rule == "DCL":
        if not (isinstance(e, Declass) and _check_kids(j, (e.expr, e.bound), (), gamma)):
            return False
        c1, c2 = j.children
        return c2.level == j.tout and c1.level <= j.level <= j.tout
    if j.rule == "ORC":
        return (isinstance(e, OracleCall) and j.level == INFINITY
                and _check_kids(j, e.args, (), gamma))
    return False


def _check_node(j: Judgment, gamma) -> bool:
    s = j.subject
    if j.rule == "SUB":
        return _check_kids(j, (), (s,), gamma) and j.children[0].level <= j.level
    if j.rule == "SKP":
        return isinstance(s, Skip) and j.level >= 0 and _check_kids(j, (), (), gamma)
    if j.rule == "ASG":
        if not (isinstance(s, Assign) and _check_kids(j, (s.expr,), (), gamma)):
            return False
        source, target = j.children[0].level, gamma.get(s.var, 0)
        return target <= j.level and is_finite(source) and (j.tout == 0 or target <= source)
    if j.rule == "SEQ":
        return (isinstance(s, Seq) and _check_kids(j, (), s.stmts, gamma)
                and all(k.level == j.level for k in j.children))
    if j.rule == "CND":
        if not (isinstance(s, If) and _check_kids(j, (s.guard,), (s.then, s.orelse), gamma)):
            return False
        g, t, o = j.children
        return g.level == t.level == o.level <= j.level
    if j.rule in ("WH", "WI"):
        lam = j.children[0].level if j.children else 0  # the guard's; no loop sits at 0
        if j.rule == "WI":
            context, ok = (lam, lam), (j.tin, j.tout) == (0, 0)
        else:
            context, ok = (lam, j.tout), lam <= j.tout
        return (
            ok and isinstance(s, While) and is_finite(lam) and 1 <= lam <= j.level
            and _check_kids(j, (s.guard,), (s.body,), gamma, context)
            and j.children[1].level == lam
        )
    if j.rule == "BRK":
        return (isinstance(s, Break) and _check_kids(j, (s.guard,), (), gamma)
                and j.level >= j.tin and j.children[0].level >= j.tin)
    if j.rule == "OBK":
        if not isinstance(s, OracleBreak):
            return False
        refs = tuple(Var(v) for v in s.ref_vars)
        calls = (OracleCall(s.oracle, s.call_args), OracleCall(s.oracle, refs))
        return (
            _check_kids(j, calls + refs, (), gamma)
            and all(j.tout < k.level for k in j.children[2:])
            and j.level >= j.tin
        )
    return False


# ---------------------------------------------------------------------------
# Brute-force oracle


BRUTE_FORCE_VAR_LIMIT = 6  # the enumeration is exponential in the variables


def brute_force_safe(program: Program1, max_level: int) -> bool:
    """Decide safety by enumerating environments and derivations outright.

    All levels (variable, loop, and intermediate judgment levels) are drawn
    from 0..max_level.  Independent of the constraint engine; used as the
    differential-testing oracle.
    """
    names = sorted(program_vars(program))
    if len(names) > BRUTE_FORCE_VAR_LIMIT:
        raise TooLarge(f"brute force limited to {BRUTE_FORCE_VAR_LIMIT} variables")
    levels = range(max_level + 1)
    full = frozenset(levels)

    for combo in itertools.product(levels, repeat=len(names)):
        gamma = dict(zip(names, combo))

        def expr_levels(e, tin, tout) -> frozenset:
            if isinstance(e, Var):
                return frozenset((gamma[e.name],))
            if isinstance(e, Declass):
                if tout not in expr_levels(e.bound, tin, tout):
                    return frozenset()
                lows = expr_levels(e.expr, tin, tout)
                return frozenset(t for t in levels if any(l <= t <= tout for l in lows))
            # OpApp: a first-order program holds no oracle call
            arg_sets = [expr_levels(a, tin, tout) for a in e.args]
            return frozenset(
                r
                for args in itertools.product(*arg_sets)
                for r in levels
                if opreg.delta_membership(e.op, tin, tout, args + (r,))
            )

        def up(base) -> frozenset:
            if not base:
                return frozenset()
            low = min(base)
            return frozenset(range(low, max_level + 1))

        def stmt_pres(s, tin, tout) -> frozenset:
            if isinstance(s, Skip):
                return full
            if isinstance(s, Assign):
                sources = expr_levels(s.expr, tin, tout)
                ok = any(tout == 0 or gamma[s.var] <= l2 for l2 in sources)
                return up({gamma[s.var]}) if ok else frozenset()
            if isinstance(s, Seq):
                out = full
                for st in s.stmts:
                    out &= stmt_pres(st, tin, tout)
                return out
            if isinstance(s, If):
                g = expr_levels(s.guard, tin, tout)
                t = stmt_pres(s.then, tin, tout)
                o = stmt_pres(s.orelse, tin, tout)
                return up(g & t & o)
            if isinstance(s, While):
                cap = tout if tout > 0 else max_level
                base = set()
                for tau in range(1, cap + 1):
                    inner_out = tout if tout > 0 else tau
                    if tau not in expr_levels(s.guard, tau, inner_out):
                        continue
                    if tau in stmt_pres(s.body, tau, inner_out):
                        base.add(tau)
                return up(base)
            # Break: a first-order program holds no oracle break
            g = expr_levels(s.guard, tin, tout)
            return up({tin}) if any(l >= tin for l in g) else frozenset()

        if stmt_pres(program.body, 0, 0):
            return True
    return False


# ---------------------------------------------------------------------------
# The decidable for-loop criterion


def check_for_program(program: Program1) -> str | None:
    """None iff every loop is a for loop that ends; else why the first is not.

    A for loop counts its variable down through ``while(e <= x)``.  It ends
    only when its lower bound e is a constant non-empty word: the empty word
    lies below every word, and a bound with variables can move.
    """
    for st in iter_stmts(program.body):
        if isinstance(st, While) and not st.for_origin:
            return f"the while loop at line {st.line} is not a for loop"
        if isinstance(st, While) and not _constant_word(st.guard.args[0]):
            return (
                f"the for loop at line {st.line} counts down to {pp_expr(st.guard.args[0])}, "
                "which is not a constant non-empty word, so it need not end"
            )
    return None


def _constant_word(e) -> str | None:
    """The value of ``e`` when it has no variables and does not fail."""
    if stmt_vars(e):
        return None
    try:
        return interp1.Interp().evaluate(e, {})
    except interp1.RuntimeStop:
        return None
