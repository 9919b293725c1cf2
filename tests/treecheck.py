"""Independent test oracle: materialized evaluation trees.

Builds the full big-step derivation tree of a first-order program by
literal while-unrolling (the loop body and the next loop configuration are
children of a synthetic sequence node) and by the paper's binary sequence
rule (a sequence node has two children: its first statement and the rest
of the sequence), then decides periodicity directly
from its definition: two configurations of the same while statement, one
strictly inside the other, whose stores agree on the guard's undeclassified
variables.

Deliberately separate from the production interpreter and monitor; only
the AST types are shared.
"""

from __future__ import annotations

from collections import Counter

from tierlang import opreg, words
from tierlang.syntax import (
    Assign,
    Break,
    Declass,
    If,
    OpApp,
    Seq,
    Skip,
    Var,
    While,
)


class TreeFuelExhausted(Exception):
    pass


def u_vars(e) -> frozenset:
    # Local re-derivation of the undeclassified-variable set.
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, OpApp):
        out = frozenset()
        for a in e.args:
            out |= u_vars(a)
        return out
    if isinstance(e, Declass):
        return u_vars(e.bound)
    raise TypeError(e)


class TreeBuilder:
    """Spends one unit of fuel per rule application.

    ``largest`` is the size, in symbols, of the largest store seen: each
    store a rule starts from and each store an assignment leaves.
    ``iterations`` counts each loop's unrollings.  When the fuel runs out,
    both hold what was reached up to that rule.
    """

    def __init__(self, fuel: int = 5000):
        self.fuel = fuel
        self.largest = 0
        self.iterations = Counter()

    def note(self, store):
        self.largest = max(self.largest, sum(map(len, store.values())))

    def spend(self):
        self.fuel -= 1
        if self.fuel <= 0:
            raise TreeFuelExhausted()

    def eval_expr(self, store, e) -> str:
        self.spend()
        if isinstance(e, Var):
            return store.get(e.name, "")
        if isinstance(e, OpApp):
            return opreg.BUILTINS.apply(e.op, [self.eval_expr(store, a) for a in e.args])
        if isinstance(e, Declass):
            w1 = self.eval_expr(store, e.expr)
            w2 = self.eval_expr(store, e.bound)
            return "1" * min(len(w1), len(w2))
        raise TypeError(e)

    def exec_tree(self, store, s):
        """Returns (broke, store, node); node = dict(stmt, store, children)."""
        self.note(store)
        self.spend()
        node = {"stmt": s, "store": dict(store), "children": []}
        if isinstance(s, Skip):
            return False, store, node
        if isinstance(s, Assign):
            out = dict(store)
            out[s.var] = self.eval_expr(store, s.expr)
            self.note(out)
            return False, out, node
        if isinstance(s, Seq):
            head, *rest = s.stmts
            broke, mid, first = self.exec_tree(store, head)
            node["children"].append(first)
            if broke:
                return True, mid, node
            tail = rest[0] if len(rest) == 1 else Seq(rest)
            broke, out, second = self.exec_tree(mid, tail)
            node["children"].append(second)
            return broke, out, node
        if isinstance(s, If):
            guard = self.eval_expr(store, s.guard)
            branch = s.then if guard == words.TRUE else s.orelse
            broke, out, child = self.exec_tree(store, branch)
            node["children"].append(child)
            return broke, out, node
        if isinstance(s, While):
            guard = self.eval_expr(store, s.guard)
            if guard != words.TRUE:
                return False, store, node
            self.iterations[s.loop_id] += 1
            # Literal unrolling: the premise is (body ; while ...).
            broke, out, child = self.exec_tree(store, Seq([s.body, s]))
            node["children"].append(child)
            return False, out, node
        if isinstance(s, Break):
            guard = self.eval_expr(store, s.guard)
            return guard == words.TRUE, store, node
        raise TypeError(s)


def run_tree(program, inputs, fuel: int = 5000):
    builder = TreeBuilder(fuel)
    store = {name: value for name, value in zip(program.params, inputs)}
    broke, out, node = builder.exec_tree(store, program.body)
    return broke, out, node


def find_periodicity(node, only=None) -> dict | None:
    """First pair of nested, equivalent while configurations, else None.

    With ``only``, a set of loop ids, other loops' configurations are ignored.
    """

    def walk(n, active):
        stmt = n["stmt"]
        if isinstance(stmt, While) and (only is None or stmt.loop_id in only):
            uset = tuple(sorted(u_vars(stmt.guard)))
            mine = tuple(n["store"].get(v, "") for v in uset)
            for wid, proj, store0 in active:
                if wid == id(stmt) and proj == mine:
                    return {
                        "loop": stmt.loop_id,
                        "projection": dict(zip(uset, mine)),
                        "earlier": store0,
                        "later": n["store"],
                    }
                # same loop, different projection: keep scanning
            active = active + [(id(stmt), mine, n["store"])]
        for child in n["children"]:
            hit = walk(child, active)
            if hit is not None:
                return hit
        return None

    return walk(node, [])


def periodic_by_tree(program, inputs, fuel: int = 5000, only=None) -> bool:
    """Direct verdict from the materialized tree (the oracle side)."""
    _, _, node = run_tree(program, inputs, fuel)
    return find_periodicity(node, only) is not None
