"""Independent test oracle: guardedness on the generic walks.

Splits each block into its statements with ``seq_chain``, finds the oracle
calls of an expression with the pre-order ``iter_exprs`` walk, and names the
place of every guard before it knows whether the guard fails.
``secondorder.check_guarded`` makes one explicit walk instead, counts calls
with ``collect_names`` and builds the text only when it raises; the tests
require both to agree on every verdict and on the text of every error.

Deliberately separate from the production walk: only ``GuardednessError``,
``pp_expr`` and the AST types are shared.
"""

from __future__ import annotations

from conftest import iter_exprs
from tierlang.parser import pp_expr
from tierlang.secondorder import GuardednessError
from tierlang.syntax import (
    Assign, Break, Declass, If, OpApp, OracleBreak, OracleCall, While, seq_chain,
)


def _oracle_calls(e) -> list:
    return [sub for sub in iter_exprs(e) if isinstance(sub, OracleCall)]


def _assert_oracle_free(e, where: str):
    if _oracle_calls(e):
        raise GuardednessError(
            1, where, "oracle calls may only appear in assignments or breaks"
        )


def _allowed_assignment_call(expr, calls: list) -> OracleCall | None:
    """The single permitted oracle call of RHS ``expr``, whose calls are ``calls``.

    Permitted shapes: X(e...) bare, truncate(X(e...), b), declass(X(e...), b);
    the call's own arguments and the rest of the expression are oracle free.
    """
    if isinstance(expr, OracleCall):
        head = expr
    elif isinstance(expr, OpApp) and expr.op == "truncate" and isinstance(expr.args[0], OracleCall):
        head = expr.args[0]
    elif isinstance(expr, Declass) and isinstance(expr.expr, OracleCall):
        head = expr.expr
    else:
        return None
    return head if len(calls) == 1 else None


def _check_guarded_stmt(s, in_loop: bool, proc):
    stmts = seq_chain(s)
    for idx, st in enumerate(stmts):
        where = f"procedure {proc.name}"
        if isinstance(st, Assign):
            calls = _oracle_calls(st.expr)
            if not calls:
                continue
            call = _allowed_assignment_call(st.expr, calls)
            if call is None:
                raise GuardednessError(
                    1,
                    f"{where}, {st.var} := {pp_expr(st.expr)}",
                    "an oracle call may only be the whole right-hand side or "
                    "the first operand of truncate or declass",
                )
            if in_loop:
                prev = stmts[idx - 1] if idx > 0 else None
                if not (
                    isinstance(prev, OracleBreak)
                    and prev.oracle == call.oracle
                    and tuple(prev.call_args) == tuple(call.args)
                ):
                    raise GuardednessError(
                        2,
                        f"{where}, {st.var} := {pp_expr(st.expr)}",
                        "inside a loop an oracle-carrying assignment must "
                        "directly follow break(|X(e...)| > |X(vars)|) on the "
                        "same call",
                    )
        elif isinstance(st, If):
            _assert_oracle_free(st.guard, f"{where}, if({pp_expr(st.guard)})")
            _check_guarded_stmt(st.then, in_loop, proc)
            _check_guarded_stmt(st.orelse, in_loop, proc)
        elif isinstance(st, While):
            _assert_oracle_free(st.guard, f"{where}, while({pp_expr(st.guard)})")
            _check_guarded_stmt(st.body, True, proc)
        elif isinstance(st, Break):
            _assert_oracle_free(st.guard, f"{where}, break({pp_expr(st.guard)})")
        elif isinstance(st, OracleBreak):
            for a in st.call_args:
                _assert_oracle_free(a, f"{where}, oracle break argument")


def reference_check_guarded(program) -> None:
    """Raise GuardednessError unless every oracle call is properly confined."""
    for proc in program.procedures:
        _check_guarded_stmt(proc.body, False, proc)
