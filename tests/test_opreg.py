import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierlang import opreg, words
from tierlang.opreg import (
    DeltaConfig,
    OperatorEntry,
    builtin_registry,
    delta_membership,
    describe_entry,
    validate_class,
)
from tierlang.syntax import INFINITY

word_st = st.text(alphabet="01#", max_size=32)


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def test_registry_contents(reg):
    expected = {
        "eq", "lt", "le", "gt", "ne", "not", "and", "or",
        "zero", "true", "false", "eps",
        "inc", "dec", "hd", "tl", "append", "decb", "len",
        "cons", "pad", "truncate",
    }
    names = [entry.name for entry in reg]
    assert set(names) == expected
    assert len(names) == 22


def test_increment_semantics(reg):
    assert reg.apply("inc", ["11"]) == "111"
    assert reg.apply("inc", ["1#0"]) == ""
    assert reg.apply("inc", [""]) == "1"


def test_length_is_binary(reg):
    assert reg.apply("len", ["100#11"]) == "110"
    assert reg.apply("len", ["1"]) == "1"
    assert reg.apply("len", [""]) == ""  # zero is the empty numeral


def test_truncate_semantics(reg):
    assert reg.apply("truncate", ["10110", "111"]) == "101"
    assert reg.apply("truncate", ["10", "11111"]) == "10"
    assert reg.apply("truncate", ["", "11"]) == ""


def test_pad_semantics(reg):
    # pad(u, v) sizes v up to |u| exactly: v, a separator, then zeros.
    assert reg.apply("pad", ["11111", "11"]) == "11#00"
    assert len(reg.apply("pad", ["11111", "11"])) == 5
    assert reg.apply("pad", ["11", "0000"]) == ""  # does not fit
    assert reg.apply("pad", ["1", ""]) == "#"


def test_cons_hd_tl(reg):
    assert reg.apply("cons", ["10", "1"]) == "10#1"
    assert reg.apply("hd", ["10#1"]) == "10"
    assert reg.apply("tl", ["10#1"]) == "1"
    assert reg.apply("cons", ["1#0", "1"]) == ""  # first operand must be #-free
    # on #-free words hd/tl fall back to first symbol and rest
    assert reg.apply("hd", ["1100"]) == "1"
    assert reg.apply("tl", ["1100"]) == "100"
    assert reg.apply("hd", [""]) == ""


def test_comparisons_shortlex(reg):
    assert reg.apply("le", ["110", "111"]) == "1"
    assert reg.apply("gt", ["10", "01"]) == "1"
    assert reg.apply("eq", ["", ""]) == "1"
    assert reg.apply("ne", ["#", "1"]) == "1"


def kernel_words(n: int, seed: int = 74) -> list:
    """n random words over {0,1,#} of up to 8 symbols, after the edge cases."""
    rng = random.Random(seed)
    fixed = ["", "1", "0", "#"] + [words.unary(k) for k in range(2, 6)]
    drawn = ["".join(rng.choice("01#") for _ in range(rng.randint(0, 8))) for _ in range(n)]
    # Unary words are rare in uniform draws; half of the rest are unary.
    drawn[::2] = [words.unary(len(w)) for w in drawn[::2]]
    return fixed + drawn


def test_operator_kernels_match_their_definitions():
    # The evaluator and treecheck both call entry.fn, so the kernels are
    # judged here against the shortlex and unary definitions.
    def pred(b):
        return words.TRUE if b else words.FALSE

    cmp = words.shortlex_compare
    comparisons = {
        "eq": lambda a, b: pred(cmp(a, b) == 0),
        "ne": lambda a, b: pred(cmp(a, b) != 0),
        "lt": lambda a, b: pred(cmp(a, b) < 0),
        "le": lambda a, b: pred(cmp(a, b) <= 0),
        "gt": lambda a, b: pred(cmp(a, b) > 0),
    }
    left, right = kernel_words(3000), kernel_words(3000, seed=75)
    # Random pairs, then each word paired with itself.
    for name, definition in comparisons.items():
        fn = opreg.BUILTINS.lookup(name).fn
        for a, b in zip(left + left, right + left):
            assert fn(a, b) == definition(a, b), (name, a, b)
    dec = opreg.BUILTINS.lookup("dec").fn
    for a in left + right:
        n = words.unary_value(a)
        assert dec(a) == ("" if not n else words.unary(n - 1)), a


def test_booleans(reg):
    assert reg.apply("not", ["1"]) == "0"
    assert reg.apply("not", ["0"]) == "1"
    assert reg.apply("not", ["10"]) == "1"  # anything but "1" is false
    assert reg.apply("and", ["1", "1"]) == "1"
    assert reg.apply("or", ["0", ""]) == "0"


def test_constants(reg):
    assert reg.apply("zero", []) == ""  # unary zero is the empty word
    assert reg.apply("eps", []) == ""
    assert reg.apply("true", []) == "1"
    assert reg.apply("false", []) == "0"
    assert reg.apply("const:101", []) == "101"


def test_binary_decrement(reg):
    assert reg.apply("decb", ["100"]) == "011"  # length preserving
    assert reg.apply("decb", ["0"]) == ""
    assert reg.apply("decb", [""]) == ""
    assert reg.apply("decb", ["1#"]) == ""


def test_append(reg):
    assert reg.apply("append", ["10", "1"]) == "101"
    assert reg.apply("append", ["10", ""]) == "10"
    assert reg.apply("append", ["10", "11"]) == ""  # only single symbols


def test_unknown_operator(reg):
    with pytest.raises(opreg.UnknownOperator):
        reg.apply("frobnicate", [])


# ---------------------------------------------------------------------------
# Admissible functional levels


def test_delta_neutral_comparison():
    assert delta_membership("gt", 1, 1, (1, 1, 1))
    assert delta_membership("gt", 1, 1, (2, 1, 1))
    assert not delta_membership("gt", 1, 1, (1, 1, 2))  # upward flow


def test_delta_positive_needs_drop():
    assert not delta_membership("inc", 1, 1, (1, 1))
    assert delta_membership("inc", 1, 1, (1, 0))
    assert delta_membership("inc", 2, 2, (1, 1))  # 1 < inner level 2
    assert delta_membership("inc", 0, 0, (3, 0))  # outside loops: result 0


def test_delta_truncate():
    assert delta_membership("truncate", 1, 1, (INFINITY, 1, 0))
    assert not delta_membership("truncate", 1, 1, (INFINITY, 0, 0))  # bound below tout
    assert not delta_membership("truncate", 1, 1, (INFINITY, 1, 1))  # result not below tin
    assert delta_membership("truncate", 0, 0, (INFINITY, 0, 5))  # loop-free context
    # every candidate whose first component is finite is rejected
    for first in range(4):
        assert not delta_membership("truncate", 1, 1, (first, 1, 0))


def test_delta_polynomial_only_outside_loops():
    assert not delta_membership("cons", 1, 1, (0, 0, 0))
    assert delta_membership("cons", 0, 0, (0, 0, 7))


def test_delta_infinite_arguments_rejected():
    assert not delta_membership("gt", 1, 1, (INFINITY, 1, 1))
    assert not delta_membership("inc", 1, 1, (INFINITY, 0))


def test_delta_config_subtracts():
    config = DeltaConfig({"gt": [[1, 1, 1]]})
    assert not delta_membership("gt", 1, 1, (1, 1, 1), config)
    assert delta_membership("gt", 1, 1, (2, 2, 1), config)
    assert delta_membership("gt", 1, 1, (1, 1, 1))  # unrestricted baseline


def test_delta_requires_finite_context():
    with pytest.raises(ValueError):
        delta_membership("gt", INFINITY, 0, (1, 1, 1))


# ---------------------------------------------------------------------------
# Class validation


def test_validate_builtins_clean(reg):
    for entry in reg:
        cexs = validate_class(entry, 300, seed=7)
        assert cexs == [], (entry.name, cexs[:3])


def test_validate_catches_misdeclared_increment(reg):
    bogus = OperatorEntry("inc", 1, reg.lookup("inc").fn, "neutral")
    cexs = validate_class(bogus, 1000, seed=7)
    assert cexs and {c["op"] for c in cexs} == {"inc"}
    cex = cexs[0]
    assert len(cex["output"]) > len(cex["inputs"][0])


def test_validate_catches_wrong_growth(reg):
    bogus = OperatorEntry("cons", 2, reg.lookup("cons").fn, "positive")
    assert validate_class(bogus, 500, seed=7)


# (kind, bound, a kernel that meets the bound, one that exceeds it)
CLASS_EDGES = [
    ("neutral", 0, lambda w: w[1:], lambda w: w + "11"),
    ("positive", 2, lambda w: w + "11", lambda w: w + "111"),
    # degree 1, arity 1: |output| <= 2 * (max|input| + 1)
    ("polynomial", 1, lambda w: w * 2 + "11", lambda w: w * 2 + "111"),
]


@pytest.mark.parametrize("kind, bound, within, beyond", CLASS_EDGES,
                         ids=[edge[0] for edge in CLASS_EDGES])
def test_a_class_admits_its_bound_and_no_more(kind, bound, within, beyond):
    assert validate_class(OperatorEntry("f", 1, within, kind, bound), 50, seed=3) == []
    cexs = validate_class(OperatorEntry("f", 1, beyond, kind, bound), 50, seed=3)
    assert len(cexs) == 50 and {c["op"] for c in cexs} == {"f"}


@pytest.mark.parametrize("kind, bound, extra", [
    ("neutral", 0, {}),
    ("positive", 1, {"growth": 1}),
    ("polynomial", 2, {"degree": 2}),
], ids=["neutral", "positive", "polynomial"])
def test_describe_entry_reports_the_bound_under_its_kind(kind, bound, extra):
    entry = OperatorEntry("f", 2, len, kind, bound)
    assert describe_entry(entry) == {"name": "f", "arity": 2, "class": kind, **extra}


@settings(max_examples=300)
@given(word_st)
def test_neutral_unary_ops_are_factors_or_bool(reg, w):
    for name in ("dec", "hd", "tl", "not"):
        out = builtin_registry().apply(name, [w])
        assert out in ("0", "1") or out in w


@settings(max_examples=300)
@given(word_st, word_st)
def test_positive_growth_bounds(reg, a, b):
    registry = builtin_registry()
    for name, c in (("append", 1), ("pad", 0)):
        out = registry.apply(name, [a, b])
        assert len(out) <= max(len(a), len(b)) + c
    for name, c in (("inc", 1), ("decb", 0), ("len", 0)):
        out = registry.apply(name, [a])
        assert len(out) <= len(a) + c
