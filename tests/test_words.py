import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tierlang import words

word_st = st.text(alphabet="01#", max_size=24)
equal_length_pairs = st.integers(min_value=0, max_value=24).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="01#", min_size=n, max_size=n),
        st.text(alphabet="01#", min_size=n, max_size=n),
    )
)


# Words are Python strings: concatenation is +, n-fold repetition is *.


def test_concat_examples():
    assert words.word("10") + words.word("1") == "101"
    assert words.EPSILON + "0#1" == "0#1"
    assert words.unary(3) + words.EPSILON == "111"


def test_repeat_zero_is_empty():
    assert "101" * 0 == words.EPSILON


def test_shortlex_examples():
    assert words.shortlex_compare("11", "000") == -1
    assert words.shortlex_compare("01", "01") == 0
    assert words.shortlex_compare("10", "01") == 1
    assert words.shortlex_compare("1", "#") == -1  # symbol order 0 < 1 < #


def test_word_validation():
    with pytest.raises(words.WordError):
        words.word("abc")
    assert words.word("0101#") == "0101#"


@given(word_st, word_st, word_st)
def test_concat_associative_with_identity(a, b, c):
    assert words.word(a + b) + c == a + words.word(b + c)
    assert words.EPSILON + a == a == a + words.EPSILON


@given(word_st, word_st, word_st)
def test_shortlex_total_order(a, b, c):
    ab, ba = words.shortlex_compare(a, b), words.shortlex_compare(b, a)
    assert ab == -ba
    if ab == 0:
        assert a == b
    if ab <= 0 and words.shortlex_compare(b, c) <= 0:
        assert words.shortlex_compare(a, c) <= 0


def reference_shortlex(v, w):
    """Shortlex by (length, symbol ranks) keys, with 0 < 1 < #."""
    rank = {"0": 0, "1": 1, "#": 2}
    kv, kw = (len(v), tuple(rank[c] for c in v)), (len(w), tuple(rank[c] for c in w))
    return (kv > kw) - (kv < kw)


@given(st.one_of(st.tuples(word_st, word_st), equal_length_pairs))
def test_shortlex_agrees_with_reference_key(pair):
    v, w = pair
    assert words.shortlex_compare(v, w) == reference_shortlex(v, w)


def test_shortlex_agrees_with_reference_key_on_all_short_words():
    # every word up to length 4: '#' in every position, all equal lengths
    short = ["".join(p) for n in range(5) for p in itertools.product("01#", repeat=n)]
    for v in short:
        for w in short:
            assert words.shortlex_compare(v, w) == reference_shortlex(v, w), (v, w)


def test_word_kernels_agree_with_per_symbol_references():
    def unary_value(w):
        return len(w) if all(c == "1" for c in w) else None

    def binary_value(w):
        if w == "":
            return 0
        return None if any(c == "#" for c in w) else int(w, 2)

    def is_word(text):
        return all(c in "01#" for c in text)

    for n in range(7):
        for symbols in itertools.product("01#", repeat=n):
            w = "".join(symbols)
            assert words.unary_value(w) == unary_value(w), w
            assert words.binary_value(w) == binary_value(w), w
            assert words.is_word(w) and is_word(w), w
    assert not words.is_word("0a1#") and not is_word("0a1#")


@given(st.integers(min_value=0, max_value=50))
def test_unary_numerals(n):
    assert words.unary_value(words.unary(n)) == n


@given(st.integers(min_value=0, max_value=2000))
def test_binary_numerals(n):
    assert words.binary_value(words.binary(n)) == n
