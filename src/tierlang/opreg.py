"""Operator registry: semantics, growth classes, and admissible level vectors.

Each operator carries a total semantics function on words and a declared
growth class, a ``kind`` and an int ``bound``.  The class drives which
functional levels (one level per argument plus one for the result) are
admissible in a given loop context (innermost level ``tin``, outermost level
``tout``):

* ``neutral`` (bound 0): result <= min of argument levels, and no argument
  at infinity.  Such operators compute predicates or contiguous factors of
  an input, so iterating them cannot grow data.
* ``positive`` (bound c): the neutral constraints, and additionally the
  result level is below the innermost loop level (or the context is loop
  free).  Outputs grow by at most the additive constant c.
* ``polynomial`` (bound d): only admissible outside loops.  Outputs are
  bounded by a polynomial of degree d in the largest input.

``truncate`` is special cased: it accepts exactly one unbounded (oracle)
argument and produces a result strictly below the innermost loop level,
bounded in size by its second operand.

Classes are declared, not inferred; ``validate_class`` spot checks a
declaration against the semantics on randomized inputs.

There is one operator set, ``BUILTINS``, built once at import and read by
every layer.  The only way to vary the admissible levels is to restrict
them with a ``DeltaConfig`` (``--delta`` on the command line).
"""

from __future__ import annotations

import random
from typing import Callable

from . import words
from .syntax import INFINITY, Level, Record, is_finite, level_str


class OperatorEntry(Record):
    __slots__ = ("name", "arity", "fn", "kind", "bound")

    def __init__(self, name: str, arity: int, fn: Callable, kind: str, bound: int = 0):
        self.name = name
        self.arity = arity
        self.fn = fn
        self.kind = kind  # "neutral", "positive" or "polynomial"
        self.bound = bound  # a positive class's additive growth, a polynomial one's degree


class UnknownOperator(KeyError):
    pass


CONST_PREFIX = "const:"


class Registry:
    """Immutable after construction; operator name -> entry.

    Names of the form ``const:w`` denote implicit arity-0 constants for the
    word ``w`` and are resolved on demand.
    """

    def __init__(self, entries):
        self._entries = {e.name: e for e in entries}

    def __iter__(self):
        return iter(self._entries.values())

    def lookup(self, name: str) -> OperatorEntry:
        if name in self._entries:
            return self._entries[name]
        if name.startswith(CONST_PREFIX):
            w = words.word(name[len(CONST_PREFIX):])
            return OperatorEntry(name, 0, lambda w=w: w, "neutral")
        raise UnknownOperator(name)

    def apply(self, name: str, args) -> str:
        entry = self.lookup(name)
        if len(args) != entry.arity:
            raise UnknownOperator(f"{name} applied to {len(args)} arguments")
        return entry.fn(*args)


# ---------------------------------------------------------------------------
# Builtin semantics


def _op_eq(a, b):
    # Shortlex equality is string equality.
    return words.TRUE if a == b else words.FALSE


def _op_lt(a, b):
    return words.TRUE if words.shortlex_compare(a, b) < 0 else words.FALSE


def _op_le(a, b):
    return words.TRUE if words.shortlex_compare(a, b) <= 0 else words.FALSE


def _op_gt(a, b):
    return words.TRUE if words.shortlex_compare(a, b) > 0 else words.FALSE


def _op_ne(a, b):
    return words.FALSE if a == b else words.TRUE


def _op_not(a):
    return words.FALSE if a == words.TRUE else words.TRUE


def _op_and(a, b):
    return words.TRUE if a == b == words.TRUE else words.FALSE


def _op_or(a, b):
    return words.TRUE if words.TRUE in (a, b) else words.FALSE


def _op_inc(a):
    """Unary successor; fails to the empty word on non-unary input."""
    n = words.unary_value(a)
    return words.EPSILON if n is None else words.unary(n + 1)


def _op_dec(a):
    """Unary predecessor; the empty word stays empty (and is the failure value)."""
    if a.count("1") != len(a):
        return words.EPSILON
    return a[1:]


def _op_hd(a):
    """Prefix before the first '#', or the first symbol of a '#'-free word."""
    i = a.find("#")
    if i >= 0:
        return a[:i]
    return a[:1]


def _op_tl(a):
    """Suffix after the first '#', or everything past the first symbol."""
    i = a.find("#")
    if i >= 0:
        return a[i + 1:]
    return a[1:]


def _op_append(a, b):
    """Append a single symbol (or nothing); fails when b is longer than one."""
    if len(b) > 1:
        return words.EPSILON
    return a + b


def _op_decb(a):
    """Binary predecessor, length preserving; fails at zero or on non-binary."""
    n = words.binary_value(a)
    if a == words.EPSILON or n is None or n == 0:
        return words.EPSILON
    return format(n - 1, "b").rjust(len(a), "0")


def _op_len(a):
    """Length of the word, written in binary (empty input gives empty output)."""
    return words.binary(len(a))


def _op_cons(a, b):
    """a#b, provided a is '#'-free; the '#' marks where hd/tl split."""
    if "#" in a:
        return words.EPSILON
    return a + "#" + b


def _op_pad(a, b):
    """b#0^n sized up to |a| exactly; fails when b does not fit."""
    n = len(a) - len(b) - 1
    if n < 0:
        return words.EPSILON
    return b + "#" + "0" * n


def _op_truncate(a, b):
    """a cut down to at most |b| symbols (a prefix of a)."""
    return a if len(a) <= len(b) else a[: len(b)]


def builtin_registry() -> Registry:
    n, p = "neutral", "positive"
    entries = [
        OperatorEntry("eq", 2, _op_eq, n),
        OperatorEntry("lt", 2, _op_lt, n),
        OperatorEntry("le", 2, _op_le, n),
        OperatorEntry("gt", 2, _op_gt, n),
        OperatorEntry("ne", 2, _op_ne, n),
        OperatorEntry("not", 1, _op_not, n),
        OperatorEntry("and", 2, _op_and, n),
        OperatorEntry("or", 2, _op_or, n),
        # Constants: zero is the empty word (the unary numeral 1^0); the
        # boolean false is the one-symbol word "0".
        OperatorEntry("zero", 0, lambda: words.EPSILON, n),
        OperatorEntry("true", 0, lambda: words.TRUE, n),
        OperatorEntry("false", 0, lambda: words.FALSE, n),
        OperatorEntry("eps", 0, lambda: words.EPSILON, n),
        OperatorEntry("inc", 1, _op_inc, p, 1),
        OperatorEntry("dec", 1, _op_dec, n),
        OperatorEntry("hd", 1, _op_hd, n),
        OperatorEntry("tl", 1, _op_tl, n),
        OperatorEntry("append", 2, _op_append, p, 1),
        OperatorEntry("decb", 1, _op_decb, p, 0),
        OperatorEntry("len", 1, _op_len, p, 0),
        OperatorEntry("cons", 2, _op_cons, "polynomial", 1),
        OperatorEntry("pad", 2, _op_pad, p, 0),
        OperatorEntry("truncate", 2, _op_truncate, n),
    ]
    return Registry(entries)


BUILTINS = builtin_registry()


# ---------------------------------------------------------------------------
# Admissible functional levels


def _is_level(value) -> bool:
    return value == "inf" or (type(value) is int and value >= 0)


class DeltaConfig:
    """Optional restriction of the maximal admissible level sets.

    The JSON form maps operator names to lists of forbidden functional
    levels, e.g. ``{"gt": [[1, 1, 1]]}`` (use "inf" for the top level).
    Forbidden vectors are removed for every context.
    """

    def __init__(self, forbidden=None):
        self.forbidden = {
            op: {tuple(INFINITY if x == "inf" else x for x in cand) for cand in cands}
            for op, cands in (forbidden or {}).items()
        }

    @classmethod
    def from_json(cls, data) -> "DeltaConfig":
        """Read the JSON form; raises ValueError on any other shape.

        The form is an object whose keys are known operators, each mapped to
        a list of vectors of arity + 1 levels, a level being an int >= 0
        (not a bool) or "inf".
        """
        if not isinstance(data, dict):
            raise ValueError("expected an object mapping operator names to lists of level vectors")
        for op, cands in data.items():
            try:
                width = BUILTINS.lookup(op).arity + 1
            except (UnknownOperator, words.WordError):
                raise ValueError(f"unknown operator {op!r}") from None
            if not (isinstance(cands, list) and all(
                isinstance(cand, list) and len(cand) == width and all(map(_is_level, cand))
                for cand in cands
            )):
                raise ValueError(
                    f"{op}: expected a list of vectors of {width} levels, "
                    'each an integer >= 0 or "inf"'
                )
        return cls(data)

    def allows(self, op: str, candidate: tuple) -> bool:
        return tuple(candidate) not in self.forbidden.get(op, set())


def delta_membership(
    op: str,
    tin: Level,
    tout: Level,
    candidate,
    config: DeltaConfig | None = None,
) -> bool:
    """Is the functional level ``candidate`` admissible for ``op`` at (tin, tout)?

    ``candidate`` has arity+1 components, argument levels then result level.
    tin and tout must be finite (they are loop levels).
    """
    entry = BUILTINS.lookup(op)
    candidate = tuple(candidate)
    if len(candidate) != entry.arity + 1:
        raise ValueError(f"{op} expects {entry.arity + 1} level components")
    if not (is_finite(tin) and is_finite(tout)):
        raise ValueError("loop context levels must be finite")
    if config is not None and not config.allows(op, candidate):
        return False
    args, result = candidate[:-1], candidate[-1]

    if op == "truncate":
        # One unbounded operand, truncated by the second; the result can
        # never guard the enclosing loops.  Outside loops (tin = 0) there is
        # nothing to guard and the result level is unconstrained.
        if candidate[0] != INFINITY:
            return False
        tau, res = candidate[1], candidate[2]
        if not is_finite(tau) or not is_finite(res):
            return False
        return tout <= tau and (tin == 0 or res < tin)

    if entry.kind == "polynomial":
        return tout == 0
    # The other two classes share the no-upward-flow and finiteness rules.
    if any(a == INFINITY for a in args):
        return False
    if args and not all(result <= a for a in args):
        return False
    if result == INFINITY:
        return False
    if entry.kind == "positive":
        return result < tin or result == 0
    return True


# ---------------------------------------------------------------------------
# Randomized class validation


def polynomial_bound(arity: int, degree: int, max_in: int) -> int:
    # Generous envelope for declared-degree checks; exact coefficients are
    # not part of the declaration.
    return (arity + 1) * (max_in + 1) ** degree


def _class_violation(entry: OperatorEntry, inputs, output) -> str | None:
    sizes = [len(w) for w in inputs]
    biggest = max(sizes, default=0)
    if entry.kind == "neutral":
        if entry.arity == 0:
            # A constant's range is a singleton, which is as bounded as a
            # predicate's; treated as neutral by convention.
            return None
        if output in (words.TRUE, words.FALSE):
            return None
        if any(output in w for w in inputs):
            return None
        return "output neither boolean nor a factor of any input"
    if entry.kind == "positive":
        if len(output) <= biggest + entry.bound:
            return None
        return f"|output| = {len(output)} > max|input| + {entry.bound}"
    if len(output) <= polynomial_bound(entry.arity, entry.bound, biggest):
        return None
    return f"|output| exceeds the degree-{entry.bound} envelope"


SAMPLE_MAX_SIZE = 64  # longest randomized input word


def _sample_word(rng: random.Random) -> str:
    size = rng.randint(0, SAMPLE_MAX_SIZE)
    style = rng.randrange(4)
    if style == 0:
        return words.unary(size)
    if style == 1:
        return "".join(rng.choice("01") for _ in range(size))
    return "".join(rng.choice(words.ALPHABET) for _ in range(size))


def validate_class(entry: OperatorEntry, samples: int, seed: int = 0) -> list:
    """Property-test the declared class on randomized input tuples.

    Returns the counterexamples as report dicts: ``op``, ``inputs`` (a
    list), ``output`` and ``reason``; none when the class holds.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    counterexamples = []
    fixtures = [words.EPSILON, "0", "1", "#", "11111", "10#1"]
    for i in range(samples):
        if i < len(fixtures) and entry.arity > 0:
            inputs = [fixtures[i]] * entry.arity
        else:
            inputs = [_sample_word(rng) for _ in range(entry.arity)]
        output = entry.fn(*inputs)
        reason = _class_violation(entry, inputs, output)
        if reason is not None:
            counterexamples.append(
                {"op": entry.name, "inputs": inputs, "output": output, "reason": reason}
            )
    return counterexamples


def validate_registry(samples: int, seed: int = 0) -> list:
    """The counterexamples of every registered operator, in registry order."""
    return [c for e in BUILTINS for c in validate_class(e, samples, seed=seed)]


def describe_entry(entry: OperatorEntry) -> dict:
    info = {"name": entry.name, "arity": entry.arity, "class": entry.kind}
    if entry.kind == "positive":
        info["growth"] = entry.bound
    if entry.kind == "polynomial":
        info["degree"] = entry.bound
    if entry.name == "truncate":
        info["special"] = "truncate"
    return info


def candidate_str(candidate) -> str:
    return " -> ".join(level_str(c) for c in candidate)
