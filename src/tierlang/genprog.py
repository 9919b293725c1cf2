"""Random first-order program generation for differential testing.

Programs draw from a small operator palette (comparisons, booleans, unary
arithmetic, word destructors, declass) over a handful of variables, with
bounded loop nesting.  The mix is tuned so that both safe and unsafe
programs occur with useful frequency.
"""

from __future__ import annotations

import random

from .syntax import (
    Assign,
    Break,
    Declass,
    If,
    OpApp,
    Program1,
    Skip,
    Var,
    While,
    assign_loop_ids,
    seq_of,
)

VARS = ["a", "b", "c", "d"]
STMT_DEPTH = 3  # statement nesting of a generated body

_UNARY_OPS = ["dec", "hd", "tl", "not", "inc"]
_BINARY_OPS = ["eq", "lt", "le", "gt", "ne", "and", "or", "append"]
_CONSTS = [OpApp("eps"), OpApp("true"), OpApp("false"), OpApp("const:1"), OpApp("const:11")]


def random_expr(rng: random.Random, names, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if rng.random() < 0.7:
            return Var(rng.choice(names))
        return rng.choice(_CONSTS)
    if roll < 0.5:
        return OpApp(rng.choice(_UNARY_OPS), [random_expr(rng, names, depth - 1)])
    if roll < 0.85:
        return OpApp(
            rng.choice(_BINARY_OPS),
            [random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1)],
        )
    return Declass(
        random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1)
    )


def random_stmt(rng: random.Random, names, depth: int, loop_depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        if rng.random() < 0.9:
            return Assign(rng.choice(names), random_expr(rng, names, 2))
        return Skip()
    if roll < 0.6:
        a = random_stmt(rng, names, depth - 1, loop_depth)
        b = random_stmt(rng, names, depth - 1, loop_depth)
        return seq_of([a, b])
    if roll < 0.72:
        return If(
            random_expr(rng, names, 2),
            random_stmt(rng, names, depth - 1, loop_depth),
            random_stmt(rng, names, depth - 1, loop_depth),
        )
    if roll < 0.82 and loop_depth > 0:
        return Break(random_expr(rng, names, 1))
    if loop_depth < 2:
        return While(
            random_expr(rng, names, 2),
            random_stmt(rng, names, depth - 1, loop_depth + 1),
        )
    return Assign(rng.choice(names), random_expr(rng, names, 2))


def random_program(rng: random.Random) -> Program1:
    names = VARS[: rng.randint(1, len(VARS))]
    body = random_stmt(rng, names, STMT_DEPTH, 0)
    program = Program1(list(names), body, rng.choice(names))
    assign_loop_ids(program)
    return program
