"""Independent test oracle: static discharge on the generic walks.

The rule as ``interp1.Interp.discharged`` first decided it: it counts the
body's assignments with the pre-order ``iter_stmts`` walk, takes the body's
own statements with ``seq_chain``, compiles the guard's operands and the
growth's constant again for their reads, and compares each write with the
shrinks it accepts.  ``Interp.discharged`` decides from what compiling the
loop found instead; the tests require both to agree on every loop.

Deliberately separate from the production decision: only the AST types,
``words``, ``undeclassified_vars`` and ``Interp.compile_expr`` (for the
(key, default) read of a variable or constant) are shared.
"""

from __future__ import annotations

from collections import Counter

from tierlang import words
from tierlang.interp1 import Interp
from tierlang.syntax import Assign, OpApp, Var, While, iter_stmts, seq_chain, undeclassified_vars

_COMPILER = Interp()


def discharged(s: While) -> bool:
    """Is loop ``s`` ranked by the length of a guard variable v?"""
    writes = Counter(t.var for t in iter_stmts(s.body) if isinstance(t, Assign))
    shrinks, grows = nonempty_var(s.guard), undeclassified_vars(s.guard)
    for t in seq_chain(s.body):
        if not isinstance(t, Assign) or writes[t.var] != 1:
            continue
        v, e = t.var, t.expr
        if v == shrinks and e in (OpApp("dec", [Var(v)]), OpApp("tl", [Var(v)])):
            return True
        if v in grows and type(e) is OpApp and e.op == "append" and e.args[0] == Var(v):
            read = _COMPILER.compile_expr(e.args[1])[3]  # (None, c) for c, (w, eps) for w
            if read and len(read[1]) == 1:
                return True
    return False


def nonempty_var(g):
    """The variable that guard ``g`` holds only while non-empty, or None."""
    if not (isinstance(g, OpApp) and len(g.args) == 2):
        return None
    reads = [_COMPILER.compile_expr(a)[3] for a in g.args]
    if g.op in ("lt", "le"):
        reads.reverse()
    if not all(reads):
        return None
    (v, _), (key, c) = reads  # a variable, then a constant: key None
    holds = {"ne": c == words.EPSILON, "gt": True, "lt": True, "le": c != words.EPSILON}
    return v if key is None and holds.get(g.op) else None
